# Runs a command-line tool and checks how it exits. Invoked by the
# senids_scan.* and senids_disasm.* tests in tests/CMakeLists.txt as
#
#   cmake -DTOOL=<tool> -DEXPECT_EXIT=<code> -DEXPECT_STDOUT=<file or empty>
#         [-DEXPECT_STDERR=<text>] -P run_tool.cmake -- <tool arguments...>
#
# The exit code must equal EXPECT_EXIT. With a nonempty EXPECT_STDOUT,
# standard output must equal that file byte for byte; with a nonempty
# EXPECT_STDERR, standard error must contain that text. A nonzero expected exit
# other than 3 (threats found, or templates matched) is a refusal, so it must
# also say why on standard error.
set(args)
set(after_separator OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND args "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator ON)
  endif()
endforeach()

get_filename_component(name "${TOOL}" NAME)
execute_process(COMMAND "${TOOL}" ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "${name} ${args}: exit ${rc}, want ${EXPECT_EXIT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(EXPECT_STDOUT)
  file(READ "${EXPECT_STDOUT}" want)
  if(NOT out STREQUAL want)
    message(FATAL_ERROR "${name} ${args}: stdout differs from ${EXPECT_STDOUT}\n"
                        "got:\n${out}\nwant:\n${want}")
  endif()
endif()
if(EXPECT_STDERR)
  string(FIND "${err}" "${EXPECT_STDERR}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${name} ${args}: stderr lacks \"${EXPECT_STDERR}\"\n"
                        "stderr:\n${err}")
  endif()
endif()
if(NOT EXPECT_EXIT EQUAL 0 AND NOT EXPECT_EXIT EQUAL 3 AND err STREQUAL "")
  message(FATAL_ERROR "${name} ${args}: exit ${rc} with nothing on stderr")
endif()
