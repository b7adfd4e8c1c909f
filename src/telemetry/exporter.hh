/**
 * @file
 * Text renderings of a closed sampling window.
 *
 * Two formats, chosen for the two consumers a live emulation run
 * actually has:
 *
 *  - JSON Lines: one self-describing object per window, for ad-hoc
 *    tooling (jq, pandas) and the CI artifact trail.
 *  - Prometheus text exposition: the current cumulative state, which
 *    an owner rewrites into a file at every window close, so pointing
 *    a node_exporter-style textfile collector at it gives live
 *    dashboards for free.
 *
 * These functions only render. Whoever owns a telemetry file opens it
 * when it attaches to a Sampler and writes the text from an exporter
 * callback (Sampler::addExporter), so a bad path fails at attach time.
 * Metrics render in registration order with fixed number formatting,
 * so two identically-seeded runs produce byte-identical output
 * (asserted by the golden tests).
 */

#ifndef MEMORIES_TELEMETRY_EXPORTER_HH
#define MEMORIES_TELEMETRY_EXPORTER_HH

#include <string>

#include "telemetry/sampler.hh"

namespace memories::telemetry
{

/** Render a double deterministically ("%.10g", integral as integer). */
std::string formatMetricValue(double value);

/** @p window as one JSON object on one line, ending in '\n'. */
std::string jsonLine(const WindowRecord &window);

/**
 * @p window as a Prometheus text exposition: cumulative counter
 * totals, gauge values and native-format histograms.
 */
std::string prometheusText(const WindowRecord &window);

} // namespace memories::telemetry

#endif // MEMORIES_TELEMETRY_EXPORTER_HH
