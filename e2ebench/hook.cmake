# Passed as CMAKE_PROJECT_INCLUDE when configuring the repository root:
# runs at the end of its project() call and adds the e2ebench package as
# one more subdirectory of that build.  Library targets are resolved by
# name at generate time, so they may be defined after this runs.
include_guard(GLOBAL)
add_subdirectory("${CMAKE_CURRENT_LIST_DIR}" "${CMAKE_BINARY_DIR}/e2ebench")
