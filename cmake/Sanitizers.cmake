# Defines coorm_sanitizers: sanitizer flags selected by COORM_SANITIZE,
# empty when it is OFF. PUBLIC on coorm_core so every consumer (tests,
# tools, benches) is instrumented consistently — mixing instrumented and
# plain TUs is the classic way to get false negatives.
#
# COORM_SANITIZE values:
#   OFF               no instrumentation (default)
#   ON | address      AddressSanitizer + UBSan
#   thread            ThreadSanitizer (the `tsan` preset; races between
#                     the daemon thread, its clients and the counters)

add_library(coorm_sanitizers INTERFACE)

if(COORM_SANITIZE)
  string(TOUPPER "${COORM_SANITIZE}" _coorm_san_value)
  if(_coorm_san_value STREQUAL "THREAD")
    set(_coorm_san_kind thread)
  elseif(_coorm_san_value MATCHES "^(ADDRESS|ON|TRUE|YES|1)$")
    set(_coorm_san_kind address,undefined)
  else()
    message(FATAL_ERROR
      "COORM_SANITIZE=${COORM_SANITIZE} is not one of OFF, ON/address, thread")
  endif()
  unset(_coorm_san_value)
  set(_coorm_san_flags -fsanitize=${_coorm_san_kind} -fno-omit-frame-pointer
      -fno-sanitize-recover=all)
  target_compile_options(coorm_sanitizers INTERFACE ${_coorm_san_flags})
  target_link_options(coorm_sanitizers INTERFACE -fsanitize=${_coorm_san_kind})
  unset(_coorm_san_flags)
  unset(_coorm_san_kind)
endif()
