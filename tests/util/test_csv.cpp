#include "util/csv.h"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.h"

namespace icn::util {
namespace {

TEST(CsvEscapeTest, PlainFieldUntouched) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(CsvEscapeTest, QuotesWhenNeeded) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvWriterTest, WritesRows) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"a", "b,c", "d"});
  writer.write_row({"1", "2"});
  EXPECT_EQ(out.str(), "a,\"b,c\",d\n1,2\n");
}

TEST(CsvParseTest, SimpleDocument) {
  const auto rows = parse_csv("a,b\nc,d\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (CsvRow{"a", "b"}));
  EXPECT_EQ(rows[1], (CsvRow{"c", "d"}));
}

TEST(CsvParseTest, MissingTrailingNewline) {
  const auto rows = parse_csv("a,b\nc,d");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (CsvRow{"c", "d"}));
}

TEST(CsvParseTest, QuotedFieldsWithCommasAndNewlines) {
  const auto rows = parse_csv("\"a,b\",\"x\ny\"\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "a,b");
  EXPECT_EQ(rows[0][1], "x\ny");
}

TEST(CsvParseTest, EscapedQuotes) {
  const auto rows = parse_csv("\"say \"\"hi\"\"\"\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "say \"hi\"");
}

TEST(CsvParseTest, ToleratesCrlf) {
  const auto rows = parse_csv("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], "b");
}

TEST(CsvParseTest, EmptyFields) {
  const auto rows = parse_csv(",\na,,b\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (CsvRow{"", ""}));
  EXPECT_EQ(rows[1], (CsvRow{"a", "", "b"}));
}

TEST(CsvParseTest, UnterminatedQuoteThrows) {
  EXPECT_THROW(parse_csv("\"abc\n"), PreconditionError);
}

TEST(CsvParseTest, RoundTripThroughWriter) {
  const std::vector<CsvRow> original = {
      {"name", "value,with,commas", "quote\"inside"},
      {"row2", "", "multi\nline"},
  };
  std::ostringstream out;
  CsvWriter writer(out);
  for (const auto& row : original) writer.write_row(row);
  EXPECT_EQ(parse_csv(out.str()), original);
}

}  // namespace
}  // namespace icn::util
