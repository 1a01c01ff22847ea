// Binary serialization for matrices and vectors (storage/codec.h
// ByteWriter/ByteReader, little-endian, IEEE-754 bit patterns): the
// payload form the durability layer embeds in snapshots and WAL
// records.  Round trips are bit-exact.
//
// The loaders are hardened against hostile input: dimension headers
// are validated against kMaxLoadElements *before* any allocation, so a
// truncated, garbage or adversarial payload yields std::runtime_error --
// never bad_alloc, UB, or a silent short read.
#pragma once

#include "tafloc/linalg/matrix.h"
#include "tafloc/storage/codec.h"

namespace tafloc {

/// Largest rows * cols (or vector length) a loader will allocate for.
/// Generous for any TafLoc deployment; small enough that a garbage
/// header cannot drive the allocator into the ground.
inline constexpr std::uint64_t kMaxLoadElements = storage::kMaxElements;

/// Binary (bit-exact) forms over a storage payload buffer.  Loading
/// throws std::runtime_error on truncated or absurd input.
void save_matrix_binary(const Matrix& m, storage::ByteWriter& out);
Matrix load_matrix_binary(storage::ByteReader& in);
void save_vector_binary(std::span<const double> v, storage::ByteWriter& out);
Vector load_vector_binary(storage::ByteReader& in);

}  // namespace tafloc
