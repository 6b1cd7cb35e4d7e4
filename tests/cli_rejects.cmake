# Runs BIN once per malformed input, NET_BIN once per input that only a
# network of routers makes malformed, and each command line in `mains` (a
# binary under BUILD_ROOT, then its arguments) once, and requires each run
# to exit with status 1 and a stderr line starting "error:" (no abort, no
# uncaught throw, no silently changed value).  An input may hold several
# space-separated arguments.
#   cmake -DBIN=path/to/quickstart -DNET_BIN=path/to/cluster_ring \
#         -DBUILD_ROOT=path/to/build -P cli_rejects.cmake
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
# A main's own keys.  Tiny runs (warmup=, measure=, loads=) keep every line
# short where the value slips through unrejected.
set(mains
  "bench/fig5_cbr_delay loads=abc" "bench/fig5_cbr_delay arbiters="
  "bench/fig5_cbr_delay loads=0.5x warmup=100 measure=100"
  "bench/fig5_cbr_delay loads= warmup=100 measure=100"
  "bench/fig5_cbr_delay full=maybe loads=0.2 warmup=100 measure=100"
  "bench/mmu_soak seeds=abc" "bench/audit_soak seeds=abc"
  "bench/matching_quality trials=abc" "examples/video_server load=abc"
  "bench/perf_baseline ports=4x mode=smoke arbiters=coa micro_ports=4
   out=cli_rejects_perf.json"
  "bench/perf_baseline mode=fast" "bench/overload_soak seeds=0x"
  "bench/table1_mpeg_stats bogus=1" "bench/hardware_cost bogus=1"
  "bench/cicq_stability arbiters=islip warmup=100 measure=100"
  "bench/network_scale threads=1 mode=smoke out=cli_rejects_network.json"
  # A fault= window off the topology, refused before anything runs: one
  # router has no channels, the 64-router torus has 256.
  "bench/cicq_stability warmup=100 measure=100 fault=down:0:10:20"
  "bench/incast_survival warmup=100 measure=100 fault=down:0:10:20"
  "bench/trace_overhead fault=down:0:10:20"
  "bench/network_scale mode=smoke fault=down:99999:10:20
   out=cli_rejects_network.json"
  "bench/fig5_cbr_delay loads=0.2 warmup=100 measure=100 fault=down:0:10:20"
  "bench/fig8_vbr_utilization loads=0.2 warmup=100 measure=100
   fault=down:0:10:20")
set(failures "")
macro(expect_rejected input)
  separate_arguments(command UNIX_COMMAND "${input}")
  execute_process(COMMAND ${command}
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE stderr)
  if(NOT status STREQUAL "1" OR NOT stderr MATCHES "(^|\n)error: ")
    string(APPEND failures "\n  ${input}: exit '${status}', stderr: ${stderr}")
  endif()
endmacro()
foreach(input IN LISTS inputs)
  expect_rejected("${BIN} measure=100 ${input}")
endforeach()
foreach(input IN LISTS net_inputs)
  expect_rejected("${NET_BIN} measure=100 ${input}")
endforeach()
foreach(input IN LISTS mains)
  expect_rejected("${BUILD_ROOT}/${input}")
endforeach()
if(failures)
  message(FATAL_ERROR "inputs not rejected with error: and exit 1:${failures}")
endif()
