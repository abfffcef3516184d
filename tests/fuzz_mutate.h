// Seeded mutations for the grammar fuzz tests (the fault-spec grammar, the
// strict integer parse): each call applies one to three edits to a valid
// input, chosen from a flipped bit, a truncation, a duplicated or swapped
// separator, a digit run replaced by a huge, negative or non-decimal
// number, and an inserted or deleted byte.
#pragma once

#include <cctype>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace bsg::testing {

/// `text` after one to three random edits; `separators` lists the bytes of
/// the grammar's structure (e.g. ";:=,") that the separator edits touch.
inline std::string Mutate(std::string text, const std::string& separators,
                          Rng* rng) {
  static const char* const kNumbers[] = {
      "-1", "-0", "0", "00", "2147483648", "-2147483649",
      "18446744073709551616", "99999999999999999999999999",
      "-9223372036854775809", "1e308", "1e999", "-1e-999", "nan", "inf",
      "-inf", "0x10", "4.", ".5"};
  static const char kBytes[] = " \t\n+-.e0;:=,";
  const auto pick = [rng](size_t n) {
    return static_cast<size_t>(rng->UniformInt(n));
  };
  const int edits = 1 + static_cast<int>(pick(3));
  for (int e = 0; e < edits; ++e) {
    std::vector<size_t> seps;
    for (size_t i = 0; i < text.size(); ++i) {
      if (separators.find(text[i]) != std::string::npos) seps.push_back(i);
    }
    switch (pick(7)) {
      case 0:  // flip one bit of one byte
        if (!text.empty()) {
          text[pick(text.size())] ^= static_cast<char>(1u << pick(8));
        }
        break;
      case 1:  // truncate
        text.resize(pick(text.size() + 1));
        break;
      case 2:  // duplicate a separator
        if (!seps.empty()) {
          const size_t at = seps[pick(seps.size())];
          text.insert(at, 1, text[at]);
        }
        break;
      case 3:  // swap two separators
        if (seps.size() >= 2) {
          std::swap(text[seps[pick(seps.size())]],
                    text[seps[pick(seps.size())]]);
        }
        break;
      case 4: {  // replace a digit run with another number
        std::vector<std::pair<size_t, size_t>> runs;
        for (size_t i = 0; i < text.size();) {
          size_t j = i;
          while (j < text.size() &&
                 std::isdigit(static_cast<unsigned char>(text[j]))) {
            ++j;
          }
          if (j > i) runs.emplace_back(i, j - i);
          i = j > i ? j : i + 1;
        }
        if (!runs.empty()) {
          const auto [at, len] = runs[pick(runs.size())];
          text.replace(at, len, kNumbers[pick(std::size(kNumbers))]);
        }
        break;
      }
      case 5: {  // insert a byte: a structural one or any of the 256
        const char byte = pick(2) == 0
                              ? kBytes[pick(sizeof(kBytes) - 1)]
                              : static_cast<char>(pick(256));
        text.insert(pick(text.size() + 1), 1, byte);
        break;
      }
      default:  // delete a byte
        if (!text.empty()) text.erase(pick(text.size()), 1);
        break;
    }
  }
  return text;
}

}  // namespace bsg::testing
