#include "util/table.h"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.h"

namespace icn::util {
namespace {

TEST(TextTableTest, AlignsColumns) {
  TextTable t({"name", "count"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "23"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name    count"), std::string::npos);
  EXPECT_NE(out.find("a           1"), std::string::npos);
  EXPECT_NE(out.find("longer     23"), std::string::npos);
}

TEST(TextTableTest, PadsMissingCells) {
  TextTable t({"a", "b", "c"});
  t.add_row({"x"});
  // One data row under the header and the rule, its missing cells blank.
  EXPECT_EQ(t.to_string(), "a  b  c\n-  -  -\nx      \n");
}

TEST(TextTableTest, RejectsTooWideRow) {
  TextTable t({"a"});
  EXPECT_THROW(t.add_row({"1", "2"}), PreconditionError);
}

TEST(TextTableTest, RejectsEmptyHeader) {
  EXPECT_THROW(TextTable({}), PreconditionError);
}

TEST(TextTableTest, PrintMatchesToString) {
  TextTable t({"x"});
  t.add_row({"1"});
  std::ostringstream out;
  t.print(out);
  EXPECT_EQ(out.str(), t.to_string());
}

TEST(FormatTest, FmtDouble) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(-1.0, 0), "-1");
}

TEST(FormatTest, FmtPercent) {
  EXPECT_EQ(fmt_percent(0.1234), "12.3%");
  EXPECT_EQ(fmt_percent(1.0, 0), "100%");
}

}  // namespace
}  // namespace icn::util
