/**
 * @file
 * Whole-dump comparison for the host-tier equivalence tests
 * (tests/sim/test_superblock.cc, tests/sim/test_flow_cache.cc): stat
 * trees, CPI stacks, pipe-view text and trace exports that must match
 * byte for byte. On a mismatch gtest's EXPECT_EQ prints a line diff of
 * both strings, which on these dumps takes seconds per failure and
 * buries the first differing key; this reports that line alone.
 */

#ifndef CSD_TESTS_SUPPORT_DUMP_DIFF_HH
#define CSD_TESTS_SUPPORT_DUMP_DIFF_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>

namespace csd::testsupport
{

/**
 * gtest predicate formatter: @p a equals @p b byte for byte. Use as
 * EXPECT_PRED_FORMAT2(testsupport::sameDump, a, b). A failure names
 * the first differing line by number and quotes it from both sides
 * (up to 240 bytes each), plus both sizes.
 */
inline ::testing::AssertionResult
sameDump(const char *a_expr, const char *b_expr, const std::string &a,
         const std::string &b)
{
    if (a == b)
        return ::testing::AssertionSuccess();
    const std::size_t common = std::min(a.size(), b.size());
    std::size_t line = 1;
    std::size_t line_begin = 0;
    for (std::size_t i = 0; i < common && a[i] == b[i]; ++i) {
        if (a[i] == '\n') {
            ++line;
            line_begin = i + 1;
        }
    }
    const auto line_of = [line_begin](const std::string &s) {
        const std::size_t end = s.find('\n', line_begin);
        const std::size_t len =
            (end == std::string::npos ? s.size() : end) - line_begin;
        return s.substr(line_begin, std::min<std::size_t>(len, 240));
    };
    return ::testing::AssertionFailure()
           << a_expr << " and " << b_expr << " differ first at line "
           << line << " (" << a.size() << " vs " << b.size()
           << " bytes):\n  " << a_expr << ": " << line_of(a) << "\n  "
           << b_expr << ": " << line_of(b);
}

} // namespace csd::testsupport

#endif // CSD_TESTS_SUPPORT_DUMP_DIFF_HH
