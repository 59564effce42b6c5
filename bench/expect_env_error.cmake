# Runs BIN once per value in VALUES (a |-separated list) with VAR set to that
# value, and fails unless every run exits nonzero with an EnvConfigError whose
# message names VAR="value". The typed error escapes main and aborts the
# process, which a plain add_test would report as a crash, not as the
# expected failure.
#
#   cmake -DBIN=<exe> -DVAR=<env var> -DVALUES="a|b" -P expect_env_error.cmake
string(REPLACE "|" ";" values "${VALUES}")
foreach(value IN LISTS values)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env "${VAR}=${value}" "${BIN}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)
  string(FIND "${out}${err}" "${VAR}=\"${value}\"" named)
  string(FIND "${out}${err}" "EnvConfigError" typed)
  if(rc EQUAL 0 OR named EQUAL -1 OR typed EQUAL -1)
    message(FATAL_ERROR
      "${VAR}=${value}: expected a typed error naming it, got exit ${rc}:\n"
      "${out}${err}")
  endif()
  message(STATUS "${VAR}=${value} rejected: exit ${rc}")
endforeach()
