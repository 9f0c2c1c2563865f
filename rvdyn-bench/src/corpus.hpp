// Seeded corpus of many-function RV64GC programs for the `rewrite` workload.
//
// Each program is assembly source for the toolkit's own assembler. Function
// bodies are built from shapes: straight-line ALU runs, loop nests, if-chains,
// calls (only to lower-numbered functions, so every program terminates),
// tail calls, early-exit guards, and jump-table switches written in
// workloads::dispatch_program's idiom (bounds check, scaled index, `jr`).
// Function sizes are heavy-tailed: one function in 1024 (at least one per
// program) is a giant of 32-96 shapes (hundreds of blocks), where liveness,
// slicing and branch relaxation cost grows; the rest have 1-3 shapes.
//
// Execution stays linear in the function count: _start calls the top
// function with depth 1, every function first calls its predecessor with
// the same depth (the "spine"), and every other call or tail call passes
// depth 0, which makes the callee run its body without calling anything.
// The exit code is a checksum of the accumulator every shape updates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rvdyn_bench {

/// Assembly source of one corpus program with `n_funcs` functions.
/// Same (seed, n_funcs) -> same text.
std::string generate_program(std::uint64_t seed, int n_funcs);

/// Assemble a corpus program into an ELF image. Its sections get bases of
/// their own: the assembler's defaults put .rodata 64 KiB after the start
/// of .text, which a program of thousands of functions would run into.
std::vector<std::uint8_t> assemble_program(const std::string& source);

/// Where a rewrite of a program whose .text ends at `text_end` puts its
/// patch area: text from the returned address, data 8 MiB above it, both
/// below the program's .rodata.
std::uint64_t patch_text_base(std::uint64_t text_end);
inline constexpr std::uint64_t kPatchDataOffset = 0x800000;

/// Function counts of a corpus of `count` programs: the log-uniform
/// distribution over [lo, hi] taken at `count` evenly spaced quantiles
/// (both ends included), so every seed gets the same size ladder and only
/// the program contents vary.
std::vector<int> corpus_sizes(int count, int lo = 100, int hi = 8000);

}  // namespace rvdyn_bench
