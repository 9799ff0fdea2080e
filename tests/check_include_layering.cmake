# Include layering: tests/ and bench/ may include src/ headers, never the
# reverse.  bench/ also includes the gtest-free references under
# tests/support/ (it builds with PMTE_BUILD_TESTS=OFF), so a tests/ header
# that bench/ includes must not include gtest itself.
#
#   cmake -DPMTE_ROOT=<repo root> -P tests/check_include_layering.cmake
#
# Exits non-zero and lists every offending line on a violation.
if(NOT PMTE_ROOT)
  message(FATAL_ERROR "usage: cmake -DPMTE_ROOT=<repo root> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(include_re "^[ \t]*#[ \t]*include[ \t]*[\"<]")
set(offenders "")

file(GLOB_RECURSE src_files "${PMTE_ROOT}/src/*.hpp" "${PMTE_ROOT}/src/*.h"
     "${PMTE_ROOT}/src/*.cpp")
foreach(f IN LISTS src_files)
  file(STRINGS "${f}" hits REGEX "${include_re}tests/")
  file(RELATIVE_PATH rel "${PMTE_ROOT}" "${f}")
  foreach(line IN LISTS hits)
    list(APPEND offenders "${rel}: ${line}")
  endforeach()
endforeach()

file(GLOB_RECURSE bench_files "${PMTE_ROOT}/bench/*.hpp"
     "${PMTE_ROOT}/bench/*.cpp")
set(bench_test_headers "")
foreach(f IN LISTS bench_files)
  file(STRINGS "${f}" hits REGEX "${include_re}tests/")
  foreach(line IN LISTS hits)
    string(REGEX MATCH "tests/[^\">]+" header "${line}")
    list(APPEND bench_test_headers "${header}")
  endforeach()
endforeach()
list(REMOVE_DUPLICATES bench_test_headers)
foreach(header IN LISTS bench_test_headers)
  file(STRINGS "${PMTE_ROOT}/${header}" hits REGEX "${include_re}gtest/")
  foreach(line IN LISTS hits)
    list(APPEND offenders "${header} (included by bench/): ${line}")
  endforeach()
endforeach()

if(offenders)
  list(JOIN offenders "\n  " report)
  message(FATAL_ERROR "include layering violated:\n  ${report}")
endif()
list(LENGTH src_files n_src)
list(LENGTH bench_test_headers n_bench)
message(STATUS "include layering ok: ${n_src} src/ files include no tests/ "
               "header; ${n_bench} tests/ header(s) used by bench/ are gtest-free")
