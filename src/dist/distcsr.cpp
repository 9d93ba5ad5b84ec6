#include "ptilu/dist/distcsr.hpp"

#include <algorithm>

#include "ptilu/sim/trace.hpp"
#include "ptilu/support/check.hpp"

namespace ptilu {

namespace {

/// Order-sensitive hash of a row list (each word goes through the
/// splitmix64 finalizer, so nearby row ids spread over all bits).
std::uint64_t hash_rows(const IdxVec& rows) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ rows.size();
  for (const idx v : rows) {
    std::uint64_t z = static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h = (h ^ (z ^ (z >> 31))) * 0x100000001b3ULL;
  }
  return h;
}

/// The halo must come from this very distribution: same rank count and,
/// rank by rank, the same owned rows.
void check_halo(const DistCsr& dist, const Halo& halo, const char* site) {
  PTILU_CHECK(halo.nranks() == dist.nranks,
              "dist_spmv at " << site << ": rank " << std::min(halo.nranks(), dist.nranks)
                              << " has no counterpart (halo built for " << halo.nranks()
                              << " ranks, the distribution has " << dist.nranks << ")");
  const auto [mine, theirs] =
      std::mismatch(dist.owned_hash.begin(), dist.owned_hash.end(),
                    halo.owned_hash.begin(), halo.owned_hash.end());
  PTILU_CHECK(mine == dist.owned_hash.end() && theirs == halo.owned_hash.end(),
              "dist_spmv at " << site << ": rank " << mine - dist.owned_hash.begin()
                              << " owns other rows than the halo was built for (a halo "
                                 "from another partition)");
}

}  // namespace

idx DistCsr::interior_count(int rank) const {
  idx count = 0;
  for (const idx row : owned_rows[rank]) count += interface[row] ? 0 : 1;
  return count;
}

idx DistCsr::interface_count_total() const {
  idx count = 0;
  for (idx v = 0; v < n(); ++v) count += interface[v] ? 1 : 0;
  return count;
}

DistCsr DistCsr::create(Csr a, const Partition& p) {
  PTILU_CHECK(a.n_rows == a.n_cols, "DistCsr needs a square matrix");
  p.validate(a.n_rows);

  DistCsr dist;
  dist.nranks = p.nparts;
  dist.owner = p.part;
  dist.owned_rows.resize(p.nparts);
  for (idx v = 0; v < a.n_rows; ++v) dist.owned_rows[p.part[v]].push_back(v);
  for (const IdxVec& rows : dist.owned_rows) dist.owned_hash.push_back(hash_rows(rows));

  // Interface classification uses the symmetrized pattern: a directed
  // coupling in either direction makes both endpoints interface nodes.
  const Csr sym = symmetrize_pattern(a);
  dist.interface.assign(a.n_rows, false);
  for (idx v = 0; v < a.n_rows; ++v) {
    for (nnz_t k = sym.row_ptr[v]; k < sym.row_ptr[v + 1]; ++k) {
      const idx u = sym.col_idx[k];
      if (u != v && p.part[u] != p.part[v]) {
        dist.interface[v] = true;
        break;
      }
    }
  }
  // The distribution holds its matrix for as long as it lives: drop the
  // slack a builder reserved (CooBuilder::to_csr reserves one entry per
  // triplet, about 2.3 per stored entry of an assembled FEM matrix).
  dist.a = std::move(a);
  dist.a.col_idx.shrink_to_fit();
  dist.a.values.shrink_to_fit();
  return dist;
}

void GhostReads::add_rank(std::span<const Read> rank_reads, const IdxVec& slot_of) {
  for (std::size_t t = 0; t < rank_reads.size(); ++t) {
    const Read& read = rank_reads[t];
    if (t == 0 || read.row != rank_reads[t - 1].row) {
      if (t > 0) ref_ptr.push_back(refs.size());
      rows.push_back(read.row);
    }
    refs.push_back({read.offset, slot_of[read.col]});
  }
  if (!rank_reads.empty()) ref_ptr.push_back(refs.size());
  rank_ptr.push_back(rows.size());
}

Halo Halo::build(const DistCsr& dist) {
  const Csr& a = dist.a;
  Halo halo;
  halo.send_lists.resize(dist.nranks);
  halo.recv_lists.resize(dist.nranks);
  halo.owned_hash = dist.owned_hash;

  std::vector<GhostReads::Read> reads;
  // A remote column keyed by delivery order: peer ascending (the inbox
  // drains by sender), then index ascending within the peer's message.
  std::vector<std::uint64_t> cols;
  // slot_of[col]: the reading rank's ghost slot of a remote column, -1 when
  // the rank has not seen it. Reset through `cols` after each rank.
  IdxVec slot_of(static_cast<std::size_t>(a.n_rows), -1);
  for (int r = 0; r < dist.nranks; ++r) {
    cols.clear();
    reads.clear();
    for (const idx row : dist.owned_rows[r]) {
      if (!dist.interface[row]) continue;  // every column is owned
      for (nnz_t k = a.row_ptr[row]; k < a.row_ptr[row + 1]; ++k) {
        const idx col = a.col_idx[k];
        const int peer = dist.owner[col];
        if (peer == r) continue;
        reads.push_back({row, static_cast<idx>(k - a.row_ptr[row]), col});
        if (slot_of[col] < 0) {
          slot_of[col] = 0;
          cols.push_back(static_cast<std::uint64_t>(peer) << 32 |
                         static_cast<std::uint32_t>(col));
        }
      }
    }
    std::sort(cols.begin(), cols.end());
    auto& recv = halo.recv_lists[r];
    for (std::size_t t = 0; t < cols.size(); ++t) {
      const int peer = static_cast<int>(cols[t] >> 32);
      const idx col = static_cast<idx>(cols[t] & 0xffffffffU);
      slot_of[col] = static_cast<idx>(t);
      if (recv.empty() || recv.back().first != peer) recv.emplace_back(peer, IdxVec{});
      recv.back().second.push_back(col);
    }
    // Ranks ascend in this loop, so every send list ends up sorted by peer.
    for (const auto& [peer, indices] : recv) {
      halo.send_lists[peer].emplace_back(r, indices);
    }
    halo.ghost_ptr.push_back(halo.ghost_ptr.back() + cols.size());

    halo.reads.add_rank(reads, slot_of);
    for (const std::uint64_t c : cols) {
      slot_of[static_cast<std::size_t>(c & 0xffffffffU)] = -1;
    }
  }
  return halo;
}

std::size_t Halo::total_exchanged() const {
  std::size_t total = 0;
  for (const auto& lists : send_lists) {
    for (const auto& [peer, indices] : lists) total += indices.size();
  }
  return total;
}

void dist_spmv(sim::Machine& machine, const DistCsr& dist, const Halo& halo,
               std::span<const real> x, std::span<real> y) {
  PTILU_CHECK(machine.nranks() == dist.nranks, "machine/partition rank mismatch");
  PTILU_CHECK(x.size() == static_cast<std::size_t>(dist.n()) && y.size() == x.size(),
              "dist_spmv size mismatch");
  check_halo(dist, halo, "spmv/halo_send");
  sim::ScopedPhase phase(machine, "spmv");
  // One flat ghost array; each rank writes only its own slot range.
  RealVec ghost(halo.ghost_ptr.back());

  // Superstep 1: ship boundary values.
  machine.step([&](sim::RankContext& ctx) {
    const int r = ctx.rank();
    for (const auto& [peer, indices] : halo.send_lists[r]) {
      ctx.charge_mem(indices.size() * sizeof(real));
      const std::span<real> values =
          ctx.send_in_place<real>(peer, /*tag=*/0, indices.size());
      for (std::size_t i = 0; i < indices.size(); ++i) values[i] = x[indices[i]];
    }
  }, "spmv/halo_send");

  // Superstep 2: receive ghosts, compute owned rows.
  machine.step([&](sim::RankContext& ctx) {
    const int r = ctx.rank();
    const auto& recv = halo.recv_lists[r];
    real* const my_ghost = ghost.data() + halo.ghost_ptr[r];
    const std::span<const sim::Message> inbox = ctx.recv_all();
    PTILU_CHECK(inbox.size() == recv.size(),
                "rank " << r << " at spmv/compute: " << inbox.size()
                        << " halo messages arrived, the halo expects " << recv.size());
    std::size_t filled = 0;
    for (std::size_t m = 0; m < inbox.size(); ++m) {
      const sim::Message& msg = inbox[m];
      const auto& [peer, indices] = recv[m];
      PTILU_CHECK(msg.from == peer && msg.payload.size() == indices.size() * sizeof(real),
                  "rank " << r << " at spmv/compute: message from rank " << msg.from
                          << " does not match the halo's list from rank " << peer);
      const std::span<const real> values = msg.as<real>();
      std::copy(values.begin(), values.end(), my_ghost + filled);
      filled += indices.size();
    }

    // Rows listed in halo.reads read some entries from the ghosts; every
    // other owned row references owned columns only.
    const Csr& a = dist.a;
    const GhostReads& reads = halo.reads;
    std::size_t t = reads.rank_ptr[r];
    const std::size_t t_end = reads.rank_ptr[r + 1];
    std::uint64_t flops = 0;
    for (const idx row : dist.owned_rows[r]) {
      const nnz_t begin = a.row_ptr[row];
      const nnz_t end = a.row_ptr[row + 1];
      real acc = 0.0;
      nnz_t k = begin;
      if (t < t_end && reads.rows[t] == row) {
        for (const GhostRef& ref : reads.refs_of(t)) {
          for (const nnz_t at = begin + ref.offset; k < at; ++k) {
            acc += a.values[k] * x[a.col_idx[k]];
          }
          acc += a.values[k] * my_ghost[ref.slot];
          ++k;
        }
        ++t;
      }
      for (; k < end; ++k) acc += a.values[k] * x[a.col_idx[k]];
      flops += 2 * static_cast<std::uint64_t>(end - begin);
      y[row] = acc;
    }
    ctx.charge_flops(flops);
  }, "spmv/compute");
  machine.check_quiescent("spmv/end");
}

}  // namespace ptilu
