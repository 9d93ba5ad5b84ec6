#include "ptilu/workloads/torso.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "ptilu/support/check.hpp"
#include "ptilu/support/rng.hpp"

namespace ptilu::workloads {

void unit_hex_stiffness(real k[8][8]) {
  // Trilinear shape functions on [0,1]^3; vertex v has coordinates
  // ((v&1), (v>>1)&1, (v>>2)&1). K_ij = ∫ ∇φ_i · ∇φ_j, evaluated with
  // 2-point Gauss quadrature per axis (exact for this integrand).
  const real gp[2] = {0.5 - 0.5 / std::sqrt(3.0), 0.5 + 0.5 / std::sqrt(3.0)};
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) k[i][j] = 0.0;
  }
  auto shape_grad = [](int v, real x, real y, real z, real grad[3]) {
    const real vx = static_cast<real>(v & 1);
    const real vy = static_cast<real>((v >> 1) & 1);
    const real vz = static_cast<real>((v >> 2) & 1);
    // φ_v = sx(x)·sy(y)·sz(z) with s(t) = t or (1-t) per vertex coordinate.
    const real sx = vx > 0 ? x : 1.0 - x;
    const real sy = vy > 0 ? y : 1.0 - y;
    const real sz = vz > 0 ? z : 1.0 - z;
    const real dx = vx > 0 ? 1.0 : -1.0;
    const real dy = vy > 0 ? 1.0 : -1.0;
    const real dz = vz > 0 ? 1.0 : -1.0;
    grad[0] = dx * sy * sz;
    grad[1] = sx * dy * sz;
    grad[2] = sx * sy * dz;
  };
  for (const real x : gp) {
    for (const real y : gp) {
      for (const real z : gp) {
        real grads[8][3];
        for (int v = 0; v < 8; ++v) shape_grad(v, x, y, z, grads[v]);
        const real weight = 1.0 / 8.0;  // 8 quadrature points, unit volume
        for (int i = 0; i < 8; ++i) {
          for (int j = 0; j < 8; ++j) {
            k[i][j] += weight * (grads[i][0] * grads[j][0] + grads[i][1] * grads[j][1] +
                                 grads[i][2] * grads[j][2]);
          }
        }
      }
    }
  }
}

namespace {

/// Tissue classification of a voxel center in normalized coordinates
/// u, v, w ∈ [-1, 1]. Simple ellipsoids approximating a thorax cross
/// section: the torso is an ellipsoid, the two lungs and the heart are
/// embedded ellipsoids, the spine a posterior cylinder.
enum class Tissue { kOutside, kMuscle, kLung, kBlood, kBone };

Tissue classify(real u, real v, real w) {
  // Torso: fat ellipsoid (slightly elliptical cross-section, full height).
  if (u * u / 0.9 + v * v / 0.7 + w * w / 1.05 > 1.0) return Tissue::kOutside;
  // Lungs: two ellipsoids left/right of the midline, mid-height.
  auto in_lung = [&](real cu) {
    const real du = (u - cu) / 0.32, dv = (v + 0.05) / 0.30, dw = (w - 0.05) / 0.55;
    return du * du + dv * dv + dw * dw < 1.0;
  };
  if (in_lung(-0.45) || in_lung(0.45)) return Tissue::kLung;
  // Heart: blood-filled ellipsoid slightly left of center.
  {
    const real du = (u + 0.12) / 0.22, dv = (v - 0.12) / 0.22, dw = (w - 0.08) / 0.26;
    if (du * du + dv * dv + dw * dw < 1.0) return Tissue::kBlood;
  }
  // Spine: posterior cylinder along the body axis.
  {
    const real du = u / 0.10, dv = (v + 0.52) / 0.10;
    if (du * du + dv * dv < 1.0) return Tissue::kBone;
  }
  return Tissue::kMuscle;
}

}  // namespace

TorsoMatrix fem_torso_3d(const TorsoOptions& opts) {
  PTILU_CHECK(opts.nx >= 2 && opts.ny >= 2 && opts.nz >= 2, "grid too small");
  const idx nx = opts.nx, ny = opts.ny, nz = opts.nz;
  Rng rng(opts.seed);

  // Classify voxels (cells). Cell (i,j,k) spans nodes (i..i+1, j..j+1, k..k+1)
  // of the (nx+1)(ny+1)(nz+1) node grid.
  const auto cell_count = static_cast<std::size_t>(nx) * ny * nz;
  std::vector<real> sigma(cell_count, 0.0);
  auto cell_id = [nx, ny](idx i, idx j, idx k) {
    return (static_cast<std::size_t>(k) * ny + j) * nx + i;
  };
  for (idx k = 0; k < nz; ++k) {
    for (idx j = 0; j < ny; ++j) {
      for (idx i = 0; i < nx; ++i) {
        const real u = 2.0 * (static_cast<real>(i) + 0.5) / static_cast<real>(nx) - 1.0;
        const real v = 2.0 * (static_cast<real>(j) + 0.5) / static_cast<real>(ny) - 1.0;
        const real w = 2.0 * (static_cast<real>(k) + 0.5) / static_cast<real>(nz) - 1.0;
        real s = 0.0;
        switch (classify(u, v, w)) {
          case Tissue::kOutside: s = 0.0; break;
          case Tissue::kMuscle: s = opts.sigma_muscle; break;
          case Tissue::kLung: s = opts.sigma_lung; break;
          case Tissue::kBlood: s = opts.sigma_blood; break;
          case Tissue::kBone: s = opts.sigma_bone; break;
        }
        if (s > 0.0) s *= rng.uniform(0.95, 1.05);  // mild tissue heterogeneity
        sigma[cell_id(i, j, k)] = s;
      }
    }
  }

  // Number the nodes that touch at least one inside cell.
  const idx nnx = nx + 1, nny = ny + 1, nnz_axis = nz + 1;
  auto node_id = [nnx, nny](idx i, idx j, idx k) {
    return (static_cast<std::size_t>(k) * nny + j) * nnx + i;
  };
  std::vector<idx> renumber(static_cast<std::size_t>(nnx) * nny * nnz_axis, -1);
  idx n_nodes = 0;
  for (idx k = 0; k < nz; ++k) {
    for (idx j = 0; j < ny; ++j) {
      for (idx i = 0; i < nx; ++i) {
        if (sigma[cell_id(i, j, k)] <= 0.0) continue;
        for (int c = 0; c < 8; ++c) {
          const idx ni = i + (c & 1), nj = j + ((c >> 1) & 1), nk = k + ((c >> 2) & 1);
          idx& slot = renumber[node_id(ni, nj, nk)];
          if (slot < 0) slot = n_nodes++;
        }
      }
    }
  }
  PTILU_CHECK(n_nodes > 0, "torso domain is empty — grid too coarse");

  real k_unit[8][8];
  unit_hex_stiffness(k_unit);

  // Exactly the triplets added below: 64 per inside cell and one grounding
  // shift per node.
  const auto inside_cells = static_cast<std::size_t>(
      std::count_if(sigma.begin(), sigma.end(), [](real s) { return s > 0.0; }));
  CooBuilder builder(n_nodes, n_nodes);
  builder.reserve(64 * inside_cells + static_cast<std::size_t>(n_nodes));
  for (idx k = 0; k < nz; ++k) {
    for (idx j = 0; j < ny; ++j) {
      for (idx i = 0; i < nx; ++i) {
        const real s = sigma[cell_id(i, j, k)];
        if (s <= 0.0) continue;
        std::array<idx, 8> nodes;
        for (int c = 0; c < 8; ++c) {
          nodes[c] = renumber[node_id(i + (c & 1), j + ((c >> 1) & 1), k + ((c >> 2) & 1))];
        }
        for (int a = 0; a < 8; ++a) {
          for (int b2 = 0; b2 < 8; ++b2) {
            builder.add(nodes[a], nodes[b2], s * k_unit[a][b2]);
          }
        }
      }
    }
  }
  // Ground the potential: the pure Neumann stiffness matrix is singular
  // (constants in the nullspace); a small mass-like shift makes it SPD,
  // mimicking the reference-electrode condition of the ECG problem.
  PTILU_CHECK(opts.ground_rel > 0.0, "grounding shift must be positive");
  const real ground = opts.ground_rel * opts.sigma_muscle;
  for (idx v = 0; v < n_nodes; ++v) builder.add(v, v, ground);

  TorsoMatrix result;
  result.a = builder.to_csr();
  result.n_nodes = n_nodes;
  return result;
}

}  // namespace ptilu::workloads
