#include "src/common/status.h"

#include <gtest/gtest.h>

namespace norman {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("flow 42");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "flow 42");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: flow 42");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(InvalidArgumentError("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(AlreadyExistsError("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(PermissionDeniedError("").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(ResourceExhaustedError("").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(FailedPreconditionError("").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(OutOfRangeError("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(InternalError("").code(), StatusCode::kInternal);
  EXPECT_EQ(UnavailableError("").code(), StatusCode::kUnavailable);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(OkStatus(), Status());
  EXPECT_EQ(NotFoundError("x"), NotFoundError("x"));
  EXPECT_NE(NotFoundError("x"), NotFoundError("y"));
  EXPECT_NE(NotFoundError("x"), InternalError("x"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.status(), OkStatus());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = InternalError("boom");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInternal);
  EXPECT_EQ(v.value_or(7), 7);
}

TEST(StatusOrTest, MoveOnlyTypes) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(5);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> out = std::move(v).value();
  EXPECT_EQ(*out, 5);
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) {
    return InvalidArgumentError("not positive");
  }
  return x;
}

Status UsesReturnIfError(int x) {
  NORMAN_RETURN_IF_ERROR(ParsePositive(x).status());
  return OkStatus();
}

StatusOr<int> UsesAssignOrReturn(int x) {
  NORMAN_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v + 1;
}

TEST(StatusMacrosTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_EQ(UsesReturnIfError(-1).code(), StatusCode::kInvalidArgument);
}

TEST(StatusMacrosTest, AssignOrReturnPropagates) {
  auto ok = UsesAssignOrReturn(1);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  EXPECT_EQ(UsesAssignOrReturn(0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StatusCodeTest, NamesAreStable) {
  EXPECT_EQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeName(StatusCode::kResourceExhausted),
            "RESOURCE_EXHAUSTED");
}

}  // namespace
}  // namespace norman
