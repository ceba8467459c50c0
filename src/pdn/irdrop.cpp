#include "pdn/irdrop.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gnnmls::pdn {

namespace {

// The orthonormal DST-I matrix of order k, S[i][j] = sqrt(2/(k+1)) *
// sin(pi (i+1)(j+1) / (k+1)), and the eigenvalues 2 - 2 cos(pi (i+1) / (k+1))
// of T_k = tridiag(-1, 2, -1). S is symmetric, its own inverse, and
// S T_k S = diag(eig). The sine argument is reduced modulo its period 2(k+1).
void sine_transform(int k, std::vector<double>& s, std::vector<double>& eig) {
  const int half = k + 1;
  const double norm = std::sqrt(2.0 / half);
  s.resize(static_cast<std::size_t>(k) * k);
  eig.resize(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j)
      s[static_cast<std::size_t>(i) * k + j] =
          norm * std::sin(std::numbers::pi * ((i + 1) * (j + 1) % (2 * half)) / half);
    eig[static_cast<std::size_t>(i)] = 2.0 - 2.0 * std::cos(std::numbers::pi * (i + 1) / half);
  }
}

// c = a * b, all row-major: a is rows x inner, b is inner x cols.
void matmul(const std::vector<double>& a, const std::vector<double>& b, std::vector<double>& c,
            int rows, int inner, int cols) {
  std::fill(c.begin(), c.end(), 0.0);
  for (int i = 0; i < rows; ++i) {
    double* ci = c.data() + static_cast<std::size_t>(i) * cols;
    for (int k = 0; k < inner; ++k) {
      const double aik = a[static_cast<std::size_t>(i) * inner + k];
      const double* bk = b.data() + static_cast<std::size_t>(k) * cols;
      for (int j = 0; j < cols; ++j) ci[j] += aik * bk[j];
    }
  }
}

}  // namespace

IrDropResult solve_ir_drop(const PdnGridSpec& spec, const std::vector<double>& power_map_mw,
                           int map_nx, int map_ny) {
  GNNMLS_SPAN("pdn.ir_solve");
  IrDropResult result;
  // PDN node grid: one node per strap crossing, capped for solver cost.
  int nx = std::max(2, static_cast<int>(spec.die_w_um / spec.strap_pitch_um));
  int ny = std::max(2, static_cast<int>(spec.die_h_um / spec.strap_pitch_um));
  nx = std::min(nx, 96);
  ny = std::min(ny, 96);
  result.grid_nx = nx;
  result.grid_ny = ny;

  // Conductance of one strap segment between adjacent crossings.
  const double seg_len_x = spec.die_w_um / nx;
  const double seg_len_y = spec.die_h_um / ny;
  const double g_x = spec.strap_width_um / (spec.sheet_r_ohm * seg_len_x);  // 1/Ohm
  const double g_y = spec.strap_width_um / (spec.sheet_r_ohm * seg_len_y);

  // Current injection per node: resample the power map, I = P / VDD.
  std::vector<double> inj_a(static_cast<std::size_t>(nx) * ny, 0.0);
  if (!power_map_mw.empty() && map_nx > 0 && map_ny > 0) {
    for (int my = 0; my < map_ny; ++my) {
      for (int mx = 0; mx < map_nx; ++mx) {
        const double p_mw = power_map_mw[static_cast<std::size_t>(my) * map_nx + mx];
        if (p_mw <= 0.0) continue;
        const int x = std::min(nx - 1, mx * nx / map_nx);
        const int y = std::min(ny - 1, my * ny / map_ny);
        inj_a[static_cast<std::size_t>(y) * nx + x] += p_mw * 1e-3 / spec.vdd;
      }
    }
  }

  // Boundary nodes are ideal VDD sources (zero drop). On the m x n interior
  // (columns x, rows y) the drop D = VDD - v solves Kirchhoff's current law,
  //   g_x * D * T_m + g_y * T_n * D = F   (F = injected current),
  // and the sine transforms diagonalise both terms:
  //   D = S_n ((S_n F S_m) ./ (g_y * lambda_i + g_x * mu_j)) S_m.
  std::vector<double> drop_v(static_cast<std::size_t>(nx) * ny, 0.0);
  const int m = nx - 2, n = ny - 2;
  if (m > 0 && n > 0) {
    std::vector<double> s_m, mu, s_n, lambda;
    sine_transform(m, s_m, mu);
    sine_transform(n, s_n, lambda);
    const std::size_t cells = static_cast<std::size_t>(n) * m;
    std::vector<double> f(cells), work(cells);
    auto interior = [&](int y, int x) { return static_cast<std::size_t>(y + 1) * nx + (x + 1); };
    for (int y = 0; y < n; ++y)
      for (int x = 0; x < m; ++x) f[static_cast<std::size_t>(y) * m + x] = inj_a[interior(y, x)];
    matmul(s_n, f, work, n, n, m);
    matmul(work, s_m, f, n, m, m);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < m; ++j)
        f[static_cast<std::size_t>(i) * m + j] /=
            g_y * lambda[static_cast<std::size_t>(i)] + g_x * mu[static_cast<std::size_t>(j)];
    matmul(s_n, f, work, n, n, m);
    matmul(work, s_m, f, n, m, m);
    for (int y = 0; y < n; ++y)
      for (int x = 0; x < m; ++x) drop_v[interior(y, x)] = f[static_cast<std::size_t>(y) * m + x];
  }

  result.node_drop_mv.resize(drop_v.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < drop_v.size(); ++i) {
    const double drop = drop_v[i] * 1e3;
    result.node_drop_mv[i] = drop;
    result.max_drop_mv = std::max(result.max_drop_mv, drop);
    sum += drop;
  }
  result.mean_drop_mv = sum / static_cast<double>(drop_v.size());
  result.drop_pct_of_vdd = result.max_drop_mv / (spec.vdd * 1e3) * 100.0;
  obs::Metrics::instance().counter("pdn.ir_iterations").add(1);
  obs::Metrics::instance().gauge("pdn.max_drop_mv").set(result.max_drop_mv);
  return result;
}

std::string render_drop_map(const IrDropResult& result, int target_cols) {
  static const char kShades[] = " .:-=+*#%@";
  const int nx = result.grid_nx, ny = result.grid_ny;
  if (nx == 0 || ny == 0) return "";
  const int cols = std::min(target_cols, nx);
  const int rows = std::max(1, cols * ny / nx / 2);  // terminal cells are ~2:1
  std::string out;
  const double scale = result.max_drop_mv > 0.0 ? result.max_drop_mv : 1.0;
  for (int r = 0; r < rows; ++r) {
    out += "    ";
    for (int c = 0; c < cols; ++c) {
      const int x = c * nx / cols;
      const int y = r * ny / rows;
      const double d = result.node_drop_mv[static_cast<std::size_t>(y) * nx + x] / scale;
      const int shade = std::clamp(static_cast<int>(d * 9.0), 0, 9);
      out += kShades[shade];
    }
    out += '\n';
  }
  return out;
}

}  // namespace gnnmls::pdn
