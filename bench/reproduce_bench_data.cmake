# Regenerates the committed paper-figure data and compares it byte for
# byte with bench_data/. Run as a script (the `bench_data_reproduce`
# ctest):
#   cmake -DBENCH_BIN_DIR=<dir> -DOUT_DIR=<dir> -DREF_DIR=<bench_data>
#         -DBENCHES="fig4_flat_scaling;..." -P reproduce_bench_data.cmake
# Each bench writes <bench>.dat into $SDSCALE_BENCH_OUT.

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
foreach(bench IN LISTS BENCHES)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env "SDSCALE_BENCH_OUT=${OUT_DIR}"
            "${BENCH_BIN_DIR}/${bench}"
    OUTPUT_QUIET
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${bench} exited with ${status}")
  endif()
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT_DIR}/${bench}.dat"
            "${REF_DIR}/${bench}.dat"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${OUT_DIR}/${bench}.dat differs from "
                        "${REF_DIR}/${bench}.dat")
  endif()
  message(STATUS "${bench}.dat matches bench_data/")
endforeach()
