# Ingests a perfbench result line into a fresh ledger with gnnmls_report,
# then parses the ledger back: `gnnmls_report diff FIXTURE LEDGER` compares
# the fixture's own record with the one read from the ledger.
#
#   cmake -DREPORT=<gnnmls_report> -DFIXTURE=<result.json> -DLEDGER=<out.jsonl>
#         -P report_ingest.cmake
file(REMOVE ${LEDGER})
execute_process(COMMAND ${REPORT} ingest ${FIXTURE} --ledger ${LEDGER} --label maeri_eco
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "ingested 21 stage\\(s\\) and 21 gauge\\(s\\)")
  message(FATAL_ERROR "ingest failed (${rc}): ${out}${err}")
endif()

file(READ ${LEDGER} record)
# pdn.ms (unit ms) is a stage in seconds; pdn.ir_iterations (a count) a gauge.
foreach(want "\"kind\":\"bench\"" "\"label\":\"maeri_eco\""
             "\"stages\":{[^}]*\"pdn.ms\":0.0046682851924"
             "\"stages\":{[^}]*\"setup.route.ms\":0.2431057"
             "\"gauges\":{[^}]*\"pdn.ir_iterations\":2[,}]")
  if(NOT record MATCHES "${want}")
    message(FATAL_ERROR "ledger record lacks ${want}: ${record}")
  endif()
endforeach()

execute_process(COMMAND ${REPORT} diff ${FIXTURE} ${LEDGER} --max-regress-pct 0 --abs-floor-ms 0
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "diff OK: 21 shared stage\\(s\\)")
  message(FATAL_ERROR "ledger did not parse back to the fixture (${rc}): ${out}${err}")
endif()
