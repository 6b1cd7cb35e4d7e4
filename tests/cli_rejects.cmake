# Runs BIN once per malformed input, and NET_BIN once per input that only a
# network of routers makes malformed, and requires each run to exit with
# status 1 and a stderr line starting "error:" (no abort, no uncaught throw).
# An input may hold several space-separated overrides.
#   cmake -DBIN=path/to/quickstart -DNET_BIN=path/to/cluster_ring \
#         -P cli_rejects.cmake
set(inputs
  "qd=cicq,xp:0" "ports=1" "levels=0" "flit_bits=100"
  "police=shape,penalty:0" "rogue=frac:2" "fault=drop:nan"
  "fault=down:99:10:5" "flow=shared,xoff:4,xon:4"
  "qd=cicq,xp:4294967297" "vcs=4294967297" "police=shape,penalty:4294967296"
  "qd=cicq,stab:7" "police=shape,burst:2,burst:3" "arbiter=bogus"
  "fault=down:0:10:20" "flow=shared,pool:18446744073709551615" "bogus=1"
  "buffer_flits=100000000" "flow=shared,pool:4000000000"
  "levels=65 vcs=128" "ports=16 vcs=64 flow=shared,pool:1100000"
  # The scan references are test support, not simulator arbiters.
  "arbiter=coa-scan" "arbiter=wfa-scan" "arbiter=islip-scan"
  "arbiter=pim-scan" "arbiter=rr-scan")
# Each router fits its own bound; four of them exceed the bound on one run.
set(net_inputs "routers=4 buffer_flits=4097")
set(failures "")
macro(expect_rejected bin input)
  separate_arguments(overrides UNIX_COMMAND "${input}")
  execute_process(COMMAND "${bin}" measure=100 ${overrides}
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE stderr)
  if(NOT status STREQUAL "1" OR NOT stderr MATCHES "(^|\n)error: ")
    string(APPEND failures "\n  ${input}: exit '${status}', stderr: ${stderr}")
  endif()
endmacro()
foreach(input IN LISTS inputs)
  expect_rejected("${BIN}" "${input}")
endforeach()
foreach(input IN LISTS net_inputs)
  expect_rejected("${NET_BIN}" "${input}")
endforeach()
if(failures)
  message(FATAL_ERROR "inputs not rejected with error: and exit 1:${failures}")
endif()
