#include "kernels/backend.hpp"

#include "tensor/quant.hpp"

namespace daedvfs::kernels {

int32_t dot(const int8_t* a, const int8_t* b, int64_t n, int32_t zp) {
  int32_t acc = 0;
  for (int64_t i = 0; i < n; ++i) {
    acc += (static_cast<int32_t>(a[i]) - zp) * static_cast<int32_t>(b[i]);
  }
  return acc;
}

void dot_many(int32_t* acc, const int8_t* x, const int8_t* w,
              int64_t w_stride, int m, int64_t n) {
  for (int i = 0; i < m; ++i) {
    const int8_t* wr = w + i * w_stride;
    int32_t s = 0;
    for (int64_t j = 0; j < n; ++j) {
      s += static_cast<int32_t>(x[j]) * static_cast<int32_t>(wr[j]);
    }
    acc[i] += s;
  }
}

int32_t dot_rows(const int8_t* a, int64_t a_row, const int8_t* b,
                 int64_t b_row, int rows, int64_t n) {
  int32_t acc = 0;
  for (int r = 0; r < rows; ++r) {
    const int8_t* ap = a + r * a_row;
    const int8_t* bp = b + r * b_row;
    for (int64_t i = 0; i < n; ++i) {
      acc += static_cast<int32_t>(ap[i]) * static_cast<int32_t>(bp[i]);
    }
  }
  return acc;
}

void conv_rows_s1(int32_t* acc, const int8_t* x, int64_t x_row,
                  const int8_t* taps, int rows, int kw, int64_t n) {
  for (int r = 0; r < rows; ++r) {
    const int8_t* xr = x + r * x_row;
    const int8_t* tr = taps + r * kw;
    for (int k = 0; k < kw; ++k) {
      const int32_t w = tr[k];
      const int8_t* xk = xr + k;
      for (int64_t j = 0; j < n; ++j) {
        acc[j] += w * static_cast<int32_t>(xk[j]);
      }
    }
  }
}

void mac_window(int32_t* acc, const int8_t* x, int64_t x_row,
                const int8_t* w, int64_t w_row, int c, int rows, int m) {
  for (int r = 0; r < rows; ++r) {
    for (int s = 0; s < m; ++s) {
      const int8_t* xp = x + r * x_row + static_cast<int64_t>(s) * c;
      const int8_t* wp = w + r * w_row + static_cast<int64_t>(s) * c;
      for (int j = 0; j < c; ++j) {
        acc[j] +=
            static_cast<int32_t>(xp[j]) * static_cast<int32_t>(wp[j]);
      }
    }
  }
}

void gather_planes(int8_t* dst, int64_t dst_stride, const int8_t* src,
                   int64_t src_stride, int64_t n, int m) {
  for (int g = 0; g < m; ++g) {
    int8_t* d = dst + g * dst_stride;
    const int8_t* s = src + g;
    for (int64_t x = 0; x < n; ++x) d[x] = s[x * src_stride];
  }
}

void requantize_row(int8_t* out, int64_t out_stride, const int32_t* acc,
                    int64_t n, int32_t multiplier, int32_t shift,
                    int32_t output_zero_point, int32_t act_min,
                    int32_t act_max) {
  const tensor::QuantizedMultiplier qm{multiplier, shift};
  for (int64_t j = 0; j < n; ++j) {
    out[j * out_stride] = tensor::requantize_to_int8(
        acc[j], qm, output_zero_point, act_min, act_max);
  }
}

const BackendInfo& default_backend() {
  static constexpr BackendInfo kScalar{"scalar"};
  return kScalar;
}

}  // namespace daedvfs::kernels
