/** Tests for the typed error taxonomy (src/fault/error.h). */

#include <exception>
#include <string>

#include <gtest/gtest.h>

#include "common/log.h"
#include "fault/error.h"

namespace bds {
namespace {

TEST(ErrorTaxonomy, RaiseCarriesCodeAndFormatsMessage)
{
    try {
        BDS_RAISE(ErrorCode::DegenerateData, "matrix has " << 3
                                                           << " rows");
        FAIL() << "BDS_RAISE did not throw";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::DegenerateData);
        EXPECT_NE(std::string(e.what()).find("degenerate_data"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("matrix has 3 rows"),
                  std::string::npos);
    }
}

TEST(ErrorTaxonomy, ErrorIsAFatalError)
{
    // Every pre-existing catch (const FatalError &) site keeps
    // catching typed errors.
    EXPECT_THROW(
        BDS_RAISE(ErrorCode::Io, "cannot open"), FatalError);
}

TEST(ErrorTaxonomy, CodeNamesRoundTrip)
{
    for (unsigned c = 0;
         c <= static_cast<unsigned>(ErrorCode::Internal); ++c) {
        ErrorCode code = static_cast<ErrorCode>(c);
        ErrorCode parsed = ErrorCode::None;
        EXPECT_TRUE(errorCodeFromName(errorCodeName(code), &parsed))
            << errorCodeName(code);
        EXPECT_EQ(parsed, code);
    }
}

/** The "(file:line)" location that ends an error's what(). */
std::string
location(const std::exception &e)
{
    const std::string what = e.what();
    const std::size_t open = what.rfind(" (");
    return open == std::string::npos ? what : what.substr(open + 2);
}

TEST(ErrorTaxonomy, LocationsAreRelativeToTheSourceRoot)
{
    // Raised inside the library: the location names the file from the
    // source root, never the absolute path of the build's checkout.
    try {
        splitList("names", "a,,b");
        FAIL() << "splitList accepted an empty name";
    } catch (const Error &e) {
        EXPECT_EQ(location(e).rfind("src/fault/error.cc:", 0), 0u)
            << e.what();
    }
    try {
        errorCodeName(static_cast<ErrorCode>(255));
        FAIL() << "errorCodeName accepted an unknown code";
    } catch (const PanicError &e) {
        EXPECT_EQ(location(e).rfind("src/fault/error.cc:", 0), 0u)
            << e.what();
    }
    try {
        BDS_FATAL("from a test");
    } catch (const FatalError &e) {
        EXPECT_EQ(location(e).rfind("tests/fault/test_error.cc:", 0), 0u)
            << e.what();
    }
}

TEST(ErrorTaxonomy, UnknownCodeNameIsRejected)
{
    ErrorCode code = ErrorCode::Io;
    EXPECT_FALSE(errorCodeFromName("not_a_code", &code));
    EXPECT_EQ(code, ErrorCode::Io); // untouched
}

} // namespace
} // namespace bds
