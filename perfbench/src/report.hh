/**
 * @file
 * Statistics and output helpers of the perfbench runner.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <string>
#include <vector>

namespace perfbench {

/** Linear-interpolated quantile of @p v (0 when empty); sorts @p v. */
double quantile(std::vector<double>& v, double q);

/** CPUs this process may run on (what nproc prints). */
unsigned onlineCpus();

/** Peak resident set of this process, MiB (getrusage). */
double peakRssMb();

/** A named metric value in one unit. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** "name value unit" lines, aligned. */
std::string formatTable(const std::vector<Metric>& metrics);

/** The {"name": {"value": v, "unit": u}, ...} object, full precision. */
std::string metricsJson(const std::vector<Metric>& metrics);

/** A JSON string literal for @p s (quotes and escapes). */
std::string jsonString(const std::string& s);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
