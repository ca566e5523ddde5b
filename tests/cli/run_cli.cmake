# Runs one command-line gate for ctest:
#
#   cmake [-DEXIT=<status>] [-DMATCH=<regex>] [-DGOLDEN=<file>]
#         [-DABSENT=<file>] [-DSALTS=<salt,salt,...>] [-DSAME=<file,...>]
#         -P run_cli.cmake [-- <command> [args...]]
#
# EXIT   the exit status the command must return (default 0). ctest by
#        itself only tells zero from non-zero.
# MATCH  a regular expression the command's output must match.
# GOLDEN a file the command's standard output must equal byte for byte.
#        The run is pinned to UNET_PERTURB=0, and its output is kept as
#        golden/<file name>.
# ABSENT a file the command must not leave behind.
# SALTS  run the command once under each UNET_PERTURB salt.
# SAME   files that must be byte-identical: to one another, and across
#        the SALTS runs. Without a command, only this comparison runs.

set(cmd)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(after_dashes)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(after_dashes TRUE)
    endif()
endforeach()
if(NOT DEFINED EXIT)
    set(EXIT 0)
endif()
if(DEFINED SALTS)
    string(REPLACE "," ";" salts "${SALTS}")
else()
    set(salts inherited)
endif()

if(DEFINED GOLDEN)
    set(ENV{UNET_PERTURB} 0)
    get_filename_component(kept ${GOLDEN} NAME)
    set(kept golden/${kept})
    file(READ ${GOLDEN} expected)
endif()
if(DEFINED ABSENT)
    file(REMOVE ${ABSENT})
endif()
string(REPLACE "," ";" same "${SAME}")

foreach(salt IN LISTS salts)
    set(run "")
    if(DEFINED SALTS)
        set(ENV{UNET_PERTURB} ${salt})
        set(run " under UNET_PERTURB=${salt}")
    endif()
    if(cmd)
        execute_process(COMMAND ${cmd} RESULT_VARIABLE status
                        OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
        set(out "${stdout}${stderr}")
        if(NOT status STREQUAL EXIT)
            message(FATAL_ERROR
                "${out}\nexit status ${status}${run}, expected ${EXIT}")
        endif()
    endif()
    if(DEFINED MATCH AND NOT out MATCHES "${MATCH}")
        message(FATAL_ERROR "${out}\noutput does not match '${MATCH}'")
    endif()
    if(DEFINED GOLDEN)
        file(WRITE ${kept} "${stdout}")
        if(NOT stdout STREQUAL expected)
            message(FATAL_ERROR "standard output differs from ${GOLDEN}; "
                "it is kept as ${kept}")
        endif()
    endif()
    if(DEFINED ABSENT AND EXISTS ${ABSENT})
        message(FATAL_ERROR "the command left ${ABSENT} behind")
    endif()
    foreach(file IN LISTS same)
        file(READ ${file} bytes)
        if(NOT DEFINED reference)
            set(reference "${bytes}")
            set(reference_from "${file}${run}")
        elseif(NOT bytes STREQUAL reference)
            message(FATAL_ERROR
                "${file}${run} differs from ${reference_from}")
        endif()
    endforeach()
endforeach()
