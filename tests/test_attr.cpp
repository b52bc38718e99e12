#include <gtest/gtest.h>

#include "graph/attr_map.hpp"
#include "graph/attr_value.hpp"

namespace {

using netembed::graph::attrId;
using netembed::graph::AttrMap;
using netembed::graph::attrName;
using netembed::graph::AttrType;
using netembed::graph::AttrValue;
using netembed::graph::findAttrId;

TEST(AttrValue, DefaultIsUndefined) {
  AttrValue v;
  EXPECT_EQ(v.type(), AttrType::Undefined);
  EXPECT_FALSE(v.isDefined());
  EXPECT_FALSE(v.isNumeric());
}

TEST(AttrValue, TypedConstruction) {
  EXPECT_EQ(AttrValue(true).type(), AttrType::Bool);
  EXPECT_EQ(AttrValue(std::int64_t{7}).type(), AttrType::Int);
  EXPECT_EQ(AttrValue(7).type(), AttrType::Int);
  EXPECT_EQ(AttrValue(2.5).type(), AttrType::Double);
  EXPECT_EQ(AttrValue("abc").type(), AttrType::String);
  EXPECT_EQ(AttrValue(std::string("abc")).type(), AttrType::String);
}

TEST(AttrValue, NumericWidening) {
  EXPECT_DOUBLE_EQ(AttrValue(7).asDouble(), 7.0);
  EXPECT_EQ(AttrValue(2.9).asInt(), 2);
  EXPECT_DOUBLE_EQ(AttrValue(true).asDouble(), 1.0);
}

TEST(AttrValue, WrongTypeAccessThrows) {
  EXPECT_THROW((void)AttrValue("x").asDouble(), std::runtime_error);
  EXPECT_THROW((void)AttrValue(1.0).asString(), std::runtime_error);
  EXPECT_THROW((void)AttrValue(1.0).asBool(), std::runtime_error);
  EXPECT_THROW((void)AttrValue().asDouble(), std::runtime_error);
}

TEST(AttrValue, ToStringRendering) {
  EXPECT_EQ(AttrValue(true).toString(), "true");
  EXPECT_EQ(AttrValue(false).toString(), "false");
  EXPECT_EQ(AttrValue(42).toString(), "42");
  EXPECT_EQ(AttrValue("hi").toString(), "hi");
  EXPECT_EQ(AttrValue().toString(), "");
  EXPECT_EQ(AttrValue(1.5).toString(), "1.5");
}

TEST(AttrValue, ParseAsRoundTrips) {
  EXPECT_EQ(AttrValue::parseAs(AttrType::Bool, "true"), AttrValue(true));
  EXPECT_EQ(AttrValue::parseAs(AttrType::Bool, "0"), AttrValue(false));
  EXPECT_EQ(AttrValue::parseAs(AttrType::Int, "-17"), AttrValue(-17));
  EXPECT_EQ(AttrValue::parseAs(AttrType::Double, "2.5e1"), AttrValue(25.0));
  EXPECT_EQ(AttrValue::parseAs(AttrType::String, "s"), AttrValue("s"));
}

TEST(AttrValue, ParseAsRejectsGarbage) {
  EXPECT_THROW((void)AttrValue::parseAs(AttrType::Bool, "maybe"), std::runtime_error);
  EXPECT_THROW((void)AttrValue::parseAs(AttrType::Int, "1.5"), std::runtime_error);
  EXPECT_THROW((void)AttrValue::parseAs(AttrType::Int, "x"), std::runtime_error);
  EXPECT_THROW((void)AttrValue::parseAs(AttrType::Double, "1.5x"), std::runtime_error);
  EXPECT_THROW((void)AttrValue::parseAs(AttrType::Double, ""), std::runtime_error);
}

TEST(AttrValue, EqualityAcrossNumericTypes) {
  EXPECT_EQ(AttrValue(2), AttrValue(2.0));
  EXPECT_NE(AttrValue(2), AttrValue(3));
  EXPECT_NE(AttrValue("2"), AttrValue(2));
  EXPECT_EQ(AttrValue(), AttrValue());
}

TEST(AttrNames, InterningIsStable) {
  const auto id1 = attrId("test_intern_alpha");
  const auto id2 = attrId("test_intern_alpha");
  const auto id3 = attrId("test_intern_beta");
  EXPECT_EQ(id1, id2);
  EXPECT_NE(id1, id3);
  EXPECT_EQ(attrName(id1), "test_intern_alpha");
}

TEST(AttrNames, FindWithoutInterning) {
  EXPECT_FALSE(findAttrId("never_interned_xyz_123").has_value());
  (void)attrId("now_interned_xyz");
  EXPECT_TRUE(findAttrId("now_interned_xyz").has_value());
}

TEST(AttrMap, SetGetOverwrite) {
  AttrMap m;
  EXPECT_TRUE(m.empty());
  m.set("delay", 10.0);
  m.set("os", "linux");
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.get("delay"), nullptr);
  EXPECT_DOUBLE_EQ(m.get("delay")->asDouble(), 10.0);
  m.set("delay", 20.0);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m.get("delay")->asDouble(), 20.0);
}

TEST(AttrMap, MissingReturnsNull) {
  AttrMap m;
  EXPECT_EQ(m.get("nothing_here"), nullptr);
  EXPECT_FALSE(m.has("nothing_here"));
  EXPECT_THROW((void)m.at("nothing_here"), std::out_of_range);
}

TEST(AttrMap, GetDoubleFallback) {
  AttrMap m;
  m.set("num", 3.5);
  m.set("str", "x");
  EXPECT_DOUBLE_EQ(m.getDouble("num", -1.0), 3.5);
  EXPECT_DOUBLE_EQ(m.getDouble("str", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(m.getDouble("absent", -1.0), -1.0);
}

TEST(AttrMap, EraseRemoves) {
  AttrMap m;
  m.set("a", 1);
  m.set("b", 2);
  EXPECT_TRUE(m.erase(attrId("a")));
  EXPECT_FALSE(m.erase(attrId("a")));
  EXPECT_EQ(m.size(), 1u);
  EXPECT_FALSE(m.has("a"));
  EXPECT_TRUE(m.has("b"));
}

TEST(AttrMap, IterationIsSortedById) {
  AttrMap m;
  m.set("zzz_last", 1);
  m.set("aaa_first", 2);
  netembed::graph::AttrId prev = 0;
  bool first = true;
  for (const auto& [id, value] : m) {
    if (!first) {
      EXPECT_GT(id, prev);
    }
    prev = id;
    first = false;
  }
}

TEST(AttrMap, EqualityComparesContents) {
  AttrMap a, b;
  a.set("k", 1.0);
  b.set("k", 1.0);
  EXPECT_EQ(a, b);
  b.set("k", 2.0);
  EXPECT_FALSE(a == b);
}

}  // namespace
