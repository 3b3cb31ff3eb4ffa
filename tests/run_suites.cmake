# Runs several test binaries as one CTest entry: cmake -DSUITES=a,b,c -P
# run_suites.cmake. Each binary inherits the entry's environment (e.g. a
# DFR_SIMD override); the entry fails on the first binary that fails.
string(REPLACE "," ";" suites "${SUITES}")
foreach(suite IN LISTS suites)
  execute_process(COMMAND "${suite}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${suite} failed: ${rc}")
  endif()
endforeach()
