# Run one syclport CLI invocation and check both its exit code and its
# output, so a crash cannot pass for an expected usage error.
#
#   cmake -DEXE=<syclport> "-DARGS=<args>" -DEXPECT_RC=<n>
#         -DEXPECT_OUT=<regex> [-DEXPECT_ERR=<regex>] -P check_cli.cmake

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR
    "syclport ${ARGS}: exit code '${rc}', expected ${EXPECT_RC}\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT out MATCHES "${EXPECT_OUT}")
  message(FATAL_ERROR
    "syclport ${ARGS}: stdout does not match '${EXPECT_OUT}'\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED EXPECT_ERR AND NOT err MATCHES "${EXPECT_ERR}")
  message(FATAL_ERROR
    "syclport ${ARGS}: stderr does not match '${EXPECT_ERR}'\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()
