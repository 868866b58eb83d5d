# Runs `gpf_tool simulate` and then `gpf_tool pipeline` twice on its output,
# once on the vector kernels (GPF_FORCE_SCALAR=0) and once pinned to the
# scalar ones (GPF_FORCE_SCALAR=1), and requires byte-identical VCFs.  Every
# SIMD fast path on the pipeline's route (SW short-circuit and ungapped
# gate, batched pair-HMM, codecs, parsers) must give the scalar answer.
#
#   cmake -DTOOL=<gpf_tool> -DWORK=<dir> -P gpf_tool_scalar_identity.cmake
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

function(run_tool)
  execute_process(COMMAND ${ARGN}
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${ARGN}: exit ${rc}\n${out}${err}")
  endif()
endfunction()

run_tool("${TOOL}" simulate s)
foreach(scalar 0 1)
  run_tool("${CMAKE_COMMAND}" -E env GPF_FORCE_SCALAR=${scalar}
           "${TOOL}" pipeline s_ref.fa s_1.fastq s_2.fastq s_truth.vcf
           out_${scalar}.vcf)
endforeach()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${WORK}/out_0.vcf" "${WORK}/out_1.vcf"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "pipeline VCFs differ between GPF_FORCE_SCALAR=0 and "
                      "=1: ${WORK}/out_0.vcf ${WORK}/out_1.vcf")
endif()
file(REMOVE_RECURSE "${WORK}")
