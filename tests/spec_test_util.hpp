// Shared helper for the spec/config rejection tests.
#pragma once

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

/// Expects `statement` to throw std::invalid_argument whose message
/// contains `text`.
#define EXPECT_INVALID(statement, text)                                   \
  do {                                                                    \
    try {                                                                 \
      statement;                                                          \
      ADD_FAILURE() << #statement << " did not throw (expected '"         \
                    << (text) << "')";                                    \
    } catch (const std::invalid_argument& error) {                        \
      EXPECT_NE(std::string(error.what()).find(text), std::string::npos)  \
          << error.what();                                                \
    }                                                                     \
  } while (false)
