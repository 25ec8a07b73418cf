# Exit-code contract tests for the rtv CLI (docs/robustness.md).
#
# Run as a ctest via `cmake -P` because ctest's PASS_REGULAR_EXPRESSION
# overrides exit-code checking — execute_process is the only way to assert
# "this invocation exits with code N" while also matching its diagnostics.
#
# Inputs (all -D):
#   RTV_BIN       path to the rtv executable
#   RTV_FIXTURES  path to tools/fixtures

if(NOT EXISTS "${RTV_BIN}")
  message(FATAL_ERROR "RTV_BIN '${RTV_BIN}' does not exist")
endif()
if(NOT IS_DIRECTORY "${RTV_FIXTURES}")
  message(FATAL_ERROR "RTV_FIXTURES '${RTV_FIXTURES}' is not a directory")
endif()

set(failures 0)

# check(<name> <expected-exit-code> <stderr-regex-or-empty> <arg>...)
function(check name expected stderr_regex)
  execute_process(
    COMMAND "${RTV_BIN}" ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 120)
  if(NOT rc STREQUAL "${expected}")
    message(SEND_ERROR
      "${name}: expected exit ${expected}, got '${rc}'\n"
      "  command: rtv ${ARGN}\n  stdout: ${out}\n  stderr: ${err}")
    math(EXPR failures "${failures} + 1")
    set(failures ${failures} PARENT_SCOPE)
    return()
  endif()
  if(NOT stderr_regex STREQUAL "" AND NOT err MATCHES "${stderr_regex}")
    message(SEND_ERROR
      "${name}: stderr does not match '${stderr_regex}'\n  stderr: ${err}")
    math(EXPR failures "${failures} + 1")
    set(failures ${failures} PARENT_SCOPE)
    return()
  endif()
  message(STATUS "${name}: exit ${rc} ok")
endfunction()

set(toggle "${RTV_FIXTURES}/toggle.rnl")
set(malformed "${RTV_FIXTURES}/malformed.rnl")

# 0: success / property holds.
check(validate_ok 0 "" validate "${toggle}" --min-area)

# 2: bad command line (unknown flag, unknown command, missing operand).
check(usage_unknown_flag 2 "unknown flag" validate "${toggle}" --bogus)
check(usage_unknown_command 2 "unknown command" frobnicate)
check(usage_no_design 2 "validate needs one design" validate)
check(usage_bad_on_exhaust 2 "--on-exhaust must be degrade or fail"
      validate "${toggle}" --min-area --on-exhaust=sometimes)

# 3: the design file exists but fails to parse.
check(parse_error 3 "parse error:" validate "${malformed}" --min-area)

# 6: the design file cannot be opened.
check(io_error 6 "io error: cannot open"
      validate "${RTV_FIXTURES}/no_such_design.rnl" --min-area)

# 7: budget exhausted under --on-exhaust=fail; the partial report still
# goes to stdout before the failure exit.
check(exhausted_fail 7 "resource budget exhausted"
      validate "${toggle}" --min-area --step-quota=1 --on-exhaust=fail)

# 1 under the default --on-exhaust=degrade: an exhausted partial report is
# never a pass, but it is not an error either.
check(exhausted_degrade 1 ""
      validate "${toggle}" --min-area --step-quota=1)

# Degraded reports must be labeled: the degrade run above prints its
# verdict line. Re-run capturing stdout to pin the label.
execute_process(
  COMMAND "${RTV_BIN}" validate "${toggle}" --min-area --step-quota=1
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 120)
if(NOT out MATCHES "verdict:  exhausted")
  message(SEND_ERROR "degrade run did not label its verdict: ${out}")
  math(EXPR failures "${failures} + 1")
endif()
if(out MATCHES "verdict:  proven")
  message(SEND_ERROR "degraded run masquerades as proven: ${out}")
  math(EXPR failures "${failures} + 1")
endif()

# Budget flags work on flow and faultsim too.
check(flow_ok 0 "" flow "${toggle}" --min-area)
check(flow_exhausted_fail 7 "resource budget exhausted"
      flow "${toggle}" --min-area --step-quota=1 --on-exhaust=fail)
check(faultsim_ok 0 "" faultsim "${toggle}" --mode=cls --random=8 --cycles=4)
check(faultsim_exhausted_fail 7 "resource budget exhausted"
      faultsim "${toggle}" --mode=exact --random=8 --cycles=4
      --step-quota=1 --on-exhaust=fail)

# The job commands are one-frame clients of the serve job layer: every job
# option is a flag (max_pairs and random_sequences were serve-only), an
# option value the job layer rejects is a usage error, and a missing plan
# file is an I/O error.
check(job_option_flags 0 ""
      cls-equiv "${toggle}" "${toggle}" --max-pairs=1000 --random-sequences 8)
check(job_option_bad_value 2 "option \"backend\" must be"
      cls-equiv "${toggle}" "${toggle}" --backend=quantum)
check(validate_default_objective 0 "" validate "${toggle}" --backend sat)
# simulate defaults to mode cls, as on the wire: a power-up state needs
# --mode binary.
check(simulate_default_cls 2 "only valid in binary mode"
      simulate "${toggle}" --inputs 1.0 --state 0)
check(simulate_binary_state 0 ""
      simulate "${toggle}" --inputs 1.0 --mode binary --state 0)
check(lint_plan_missing 6 "io error: cannot open"
      lint "${toggle}" --plan "${RTV_FIXTURES}/no_such_plan.json")
check(lint_plan 0 "" lint "${toggle}" --plan "${RTV_FIXTURES}/toggle_plan.json")

# --json prints the response frame `rtv serve` would send for the request.
execute_process(
  COMMAND "${RTV_BIN}" cls-equiv "${toggle}" "${toggle}" --json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 120)
if(NOT out MATCHES "^{\"rtv_serve\":3,.*\"ok\":true,\"type\":\"cls-equivalence\",\"result\":{\"equivalent\":true")
  message(SEND_ERROR "cls-equiv --json is not a response frame: ${out}")
  math(EXPR failures "${failures} + 1")
endif()
execute_process(
  COMMAND "${RTV_BIN}" lint "${toggle}" --plan "${RTV_FIXTURES}/toggle_plan.json" --json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 120)
if(NOT out MATCHES "\"plan\":{\"analyzable\":")
  message(SEND_ERROR "lint --plan --json carries no plan verdict: ${out}")
  math(EXPR failures "${failures} + 1")
endif()

# A pair the static backend cannot decide is reported undecided (exit 1),
# never as equivalent or distinguishable. The buffered copy has one cell
# more, so no recovered lag carries a per-move certificate either.
set(shift3 "${RTV_FIXTURES}/../../examples/shift3.rnl")
execute_process(
  COMMAND "${RTV_BIN}" cls-equiv "${shift3}" "${RTV_FIXTURES}/shift3_buf.rnl"
          --backend static
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 120)
if(NOT rc EQUAL 1 OR NOT out MATCHES "^CLS-UNDECIDED \\(inconclusive")
  message(SEND_ERROR "static backend did not report undecided (exit ${rc}): ${out}")
  math(EXPR failures "${failures} + 1")
endif()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} exit-code check(s) failed")
endif()
message(STATUS "all CLI exit-code checks passed")
