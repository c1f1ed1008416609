#ifndef POPAN_TESTS_TESTING_REJECTING_STREAMBUF_H_
#define POPAN_TESTS_TESTING_REJECTING_STREAMBUF_H_

#include <streambuf>

namespace popan {

/// A stream buffer that takes bytes into its 4 KiB put area until
/// `rejecting` is set; from then on it refuses to flush or grow, as a
/// full disk or a dead descriptor does. A write that fits the put area
/// still succeeds, so a buffered record fails only at its flush.
class RejectingStreambuf : public std::streambuf {
 public:
  RejectingStreambuf() { setp(area_, area_ + sizeof(area_)); }
  bool rejecting = false;

 protected:
  int sync() override {
    if (rejecting) return -1;
    setp(area_, area_ + sizeof(area_));
    return 0;
  }
  int_type overflow(int_type ch) override {
    if (rejecting || sync() != 0) return traits_type::eof();
    if (traits_type::eq_int_type(ch, traits_type::eof())) return 0;
    return sputc(traits_type::to_char_type(ch));
  }

 private:
  char area_[4096];
};

}  // namespace popan

#endif  // POPAN_TESTS_TESTING_REJECTING_STREAMBUF_H_
