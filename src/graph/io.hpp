// Graph and partition file I/O in the Chaco/METIS text format, so meshes and
// partitions generated by gapart interoperate with other partitioning tools.
//
// Graph format: first line "n m [fmt]", where fmt is a 2-digit code:
//   00/absent: no weights; 01: edge weights; 10: vertex weights; 11: both.
// Line i (1-based) lists vertex i's [weight,] neighbour [weight] pairs,
// neighbours 1-based.  Lines starting with '%' are comments.
//
// Coordinate files: one "x y" pair per line.  Partition files: one 0-based
// part id per line.
//
// Error contract: file/stream-level failures — unopenable paths, a file
// truncated below what its header promises, a write that left the stream bad
// (disk full, device error) — throw gapart::IoError.  Malformed but complete
// content (bad headers, out-of-range ids) throws gapart::Error.  Writers
// flush and check the stream before returning, so a completed call means the
// bytes reached the OS.
//
// Weights are written as the shortest decimal that reads back to the same
// double, so a weighted graph round-trips bit-exactly; unit-weight graphs
// and partitions are plain integers.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace gapart {

/// The Chaco text of `g` (what write_graph writes), formatted into one
/// buffer for callers that ship or persist it themselves.
std::string format_graph(const Graph& g);

void write_graph(std::ostream& os, const Graph& g);
void write_graph_file(const std::string& path, const Graph& g);

Graph read_graph(std::istream& is);
Graph read_graph_file(const std::string& path);

void write_coordinates(std::ostream& os, const Graph& g);
void write_coordinates_file(const std::string& path, const Graph& g);

/// Reads coordinates for `g` (count must match |V|) and returns a graph with
/// them attached.
Graph attach_coordinates(const Graph& g, std::istream& is);

/// One part id per line (what write_partition writes), in one buffer.
std::string format_partition(const Assignment& a);

void write_partition(std::ostream& os, const Assignment& a);
void write_partition_file(const std::string& path, const Assignment& a);

Assignment read_partition(std::istream& is);
Assignment read_partition_file(const std::string& path);

}  // namespace gapart
