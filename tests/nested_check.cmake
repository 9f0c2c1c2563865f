# Nested-build check: configure a second build tree with one cache setting
# (a sanitizer), build a list of test binaries there and run each one; any
# failure fails the check. Run via
#   cmake -DSETTING=RVDYN_SANITIZE=thread -DTARGETS=test_obs,test_parse \
#         -P tests/nested_check.cmake
# (tests/CMakeLists.txt registers each configuration as a `buildcheck`
# ctest entry).
#
# Variables (-D before -P):
#   SETTING     required: one cache entry, NAME=VALUE
#               (e.g. RVDYN_SANITIZE=address)
#   TARGETS     required: comma-separated test targets to build and run
#   SOURCE_DIR  repo root (default: parent of this script)
#   BINARY_DIR  nested build dir (default: ${SOURCE_DIR}/build-nested)
#   JOBS        parallel build jobs (default: 4)

if(NOT SETTING OR NOT TARGETS)
  message(FATAL_ERROR "nested check: SETTING and TARGETS are required")
endif()
if(NOT SOURCE_DIR)
  get_filename_component(SOURCE_DIR ${CMAKE_CURRENT_LIST_DIR} DIRECTORY)
endif()
if(NOT BINARY_DIR)
  set(BINARY_DIR ${SOURCE_DIR}/build-nested)
endif()
if(NOT JOBS)
  set(JOBS 4)
endif()
string(REPLACE "," ";" targets "${TARGETS}")

message(STATUS "nested check: configuring ${BINARY_DIR} with -D${SETTING}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BINARY_DIR}
          -D${SETTING} -DCMAKE_BUILD_TYPE=RelWithDebInfo
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nested check: configure failed with -D${SETTING}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BINARY_DIR} -j ${JOBS} --target ${targets}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nested check: build failed with -D${SETTING}")
endif()

foreach(t ${targets})
  message(STATUS "nested check: running ${t}")
  execute_process(
    COMMAND ${BINARY_DIR}/tests/${t}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nested check: ${t} failed with -D${SETTING}")
  endif()
endforeach()

message(STATUS "nested check: all targets pass with -D${SETTING}")
