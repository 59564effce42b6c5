# Runs BIN once per case in CASES (a |-separated list) and fails unless every
# run exits 2 with a message that quotes the offending argument. A case is a
# space-separated word list: the first word is the argument the message must
# quote, the rest is the command line. A run that got as far as a connect
# attempt would fail with a transport error instead, which quotes no
# argument, so a pass also shows that parsing stopped it.
#
#   cmake -DBIN=<exe> -DCASES="bad bad ping|..." -P expect_usage_error.cmake
string(REPLACE "|" ";" cases "${CASES}")
foreach(case IN LISTS cases)
  separate_arguments(words UNIX_COMMAND "${case}")
  list(POP_FRONT words bad)
  string(JOIN " " shown ${words})
  execute_process(
    COMMAND "${BIN}" ${words}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)
  string(FIND "${out}${err}" "\"${bad}\"" named)
  if(NOT rc EQUAL 2 OR named EQUAL -1)
    message(FATAL_ERROR
      "icn_query ${shown}: expected exit 2 naming \"${bad}\", got exit ${rc}:\n"
      "${out}${err}")
  endif()
  message(STATUS "icn_query ${shown}: rejected \"${bad}\"")
endforeach()
