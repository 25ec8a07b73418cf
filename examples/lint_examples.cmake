# lint-examples-smoke: every example netlist must stay lint-clean — zero
# errors, warnings, and notes from both the structural and the semantic
# (ternary-dataflow RTV3xx) passes, in the text and the JSON renderer.
#
# Run via `cmake -P` (tools/cli_exit_codes.cmake idiom) so the exit code of
# each rtv invocation is asserted directly.
#
# Inputs (all -D):
#   RTV_BIN       path to the rtv executable
#   RTV_EXAMPLES  path to the examples directory

if(NOT EXISTS "${RTV_BIN}")
  message(FATAL_ERROR "RTV_BIN '${RTV_BIN}' does not exist")
endif()
if(NOT IS_DIRECTORY "${RTV_EXAMPLES}")
  message(FATAL_ERROR "RTV_EXAMPLES '${RTV_EXAMPLES}' is not a directory")
endif()

file(GLOB rnl_files "${RTV_EXAMPLES}/*.rnl")
list(LENGTH rnl_files num_files)
if(num_files EQUAL 0)
  message(FATAL_ERROR "no .rnl examples found in ${RTV_EXAMPLES}")
endif()

set(failures 0)

foreach(design IN LISTS rnl_files)
  get_filename_component(name "${design}" NAME)

  # --strict: warnings (and of course errors) fail the run.
  execute_process(
    COMMAND "${RTV_BIN}" lint "${design}" --strict
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 120)
  if(NOT rc STREQUAL "0")
    message(SEND_ERROR
      "${name}: rtv lint --strict exited ${rc}\n"
      "  stdout: ${out}\n  stderr: ${err}")
    math(EXPR failures "${failures} + 1")
    continue()
  endif()
  if(NOT out MATCHES "0 error\\(s\\), 0 warning\\(s\\), 0 note\\(s\\)")
    message(SEND_ERROR "${name}: report is not clean\n  stdout: ${out}")
    math(EXPR failures "${failures} + 1")
    continue()
  endif()
  if(NOT out MATCHES "dataflow: ")
    message(SEND_ERROR
      "${name}: semantic stage did not run (no dataflow stats)\n"
      "  stdout: ${out}")
    math(EXPR failures "${failures} + 1")
    continue()
  endif()

  # The JSON response frame must agree.
  execute_process(
    COMMAND "${RTV_BIN}" lint "${design}" --json
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    TIMEOUT 120)
  if(NOT rc STREQUAL "0" OR NOT out MATCHES "\"clean\":true")
    message(SEND_ERROR "${name}: JSON report not clean (exit ${rc})\n"
      "  stdout: ${out}")
    math(EXPR failures "${failures} + 1")
    continue()
  endif()

  message(STATUS "${name}: lint clean")
endforeach()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} example(s) failed lint")
endif()
message(STATUS "all ${num_files} example netlist(s) lint clean")
