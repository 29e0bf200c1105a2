# Fails unless `readelf -d` of every binary in BINARIES lists its needed
# libraries and none of them is libcrypto.
#
#   cmake -DREADELF=readelf "-DBINARIES=build/tcserver;build/tccli" \
#         -P tests/no_libcrypto.cmake
if(NOT BINARIES)
  message(FATAL_ERROR "no binary to check")
endif()
foreach(binary IN LISTS BINARIES)
  execute_process(COMMAND ${READELF} -d ${binary}
                  OUTPUT_VARIABLE dynamic RESULT_VARIABLE status)
  if(NOT status EQUAL 0 OR NOT dynamic MATCHES "\\(NEEDED\\)")
    message(FATAL_ERROR "readelf -d ${binary} listed no needed libraries")
  endif()
  if(dynamic MATCHES "libcrypto")
    message(FATAL_ERROR "${binary} needs libcrypto:\n${dynamic}")
  endif()
endforeach()
