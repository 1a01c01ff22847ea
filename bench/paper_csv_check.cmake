# Regenerates one committed paper CSV and byte-compares it with the
# committed file.  Runs the bench binary's table part only
# (--benchmark_filter=NONE skips the google-benchmark timings) in a
# fresh WORK_DIR, because the binaries write their CSV into the cwd.
#
#   cmake -DBENCH=<bench binary> -DSTEM=<csv stem> -DEXPECTED=<committed csv>
#         -DWORK_DIR=<scratch dir> -P paper_csv_check.cmake
foreach(var BENCH STEM EXPECTED WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "paper_csv_check.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${BENCH}" --benchmark_filter=NONE
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE log
  ERROR_VARIABLE log)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} failed (${rc}):\n${log}")
endif()

set(actual "${WORK_DIR}/${STEM}.csv")
if(NOT EXISTS "${actual}")
  message(FATAL_ERROR "${BENCH} wrote no ${STEM}.csv:\n${log}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${EXPECTED}" "${actual}"
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E echo "--- committed: ${EXPECTED}")
  execute_process(COMMAND "${CMAKE_COMMAND}" -E cat "${EXPECTED}")
  execute_process(COMMAND "${CMAKE_COMMAND}" -E echo "--- regenerated: ${actual}")
  execute_process(COMMAND "${CMAKE_COMMAND}" -E cat "${actual}")
  message(FATAL_ERROR "${STEM}.csv differs from the committed file")
endif()
message(STATUS "${STEM}.csv matches the committed file byte for byte")
