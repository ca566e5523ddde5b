# Runs one command-line gate for ctest:
#
#   cmake [-DEXIT=<status>] [-DMATCH=<regex>]
#         [-DSALTS=<salt,salt,...> -DSAME=<file>]
#         -P run_cli.cmake -- <command> [args...]
#
# EXIT   the exit status the command must return (default 0). ctest by
#        itself only tells zero from non-zero.
# MATCH  a regular expression the command's output must match.
# SALTS  run the command once under each UNET_PERTURB salt; the file
#        SAME that it writes must be byte-identical across the runs.

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

foreach(salt IN LISTS salts)
    set(run "")
    if(DEFINED SALTS)
        set(ENV{UNET_PERTURB} ${salt})
        set(run " under UNET_PERTURB=${salt}")
    endif()
    execute_process(COMMAND ${cmd} RESULT_VARIABLE status
                    OUTPUT_VARIABLE out ERROR_VARIABLE out)
    if(NOT status STREQUAL EXIT)
        message(FATAL_ERROR
            "${out}\nexit status ${status}${run}, expected ${EXIT}")
    endif()
    if(DEFINED MATCH AND NOT out MATCHES "${MATCH}")
        message(FATAL_ERROR "${out}\noutput does not match '${MATCH}'")
    endif()
    if(DEFINED SAME)
        file(READ ${SAME} bytes)
        if(NOT DEFINED reference)
            set(reference "${bytes}")
            set(reference_salt ${salt})
        elseif(NOT bytes STREQUAL reference)
            message(FATAL_ERROR "${SAME} under UNET_PERTURB=${salt} "
                "differs from UNET_PERTURB=${reference_salt}")
        endif()
    endif()
endforeach()
