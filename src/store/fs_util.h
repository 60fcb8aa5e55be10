#ifndef DSTORE_STORE_FS_UTIL_H_
#define DSTORE_STORE_FS_UTIL_H_

#include <filesystem>

#include "common/bytes.h"
#include "common/status.h"
#include "common/sync.h"

namespace dstore {

// Durability helpers shared by the on-disk stores (FileStore, the SQL WAL,
// the LSM engine, the replication log).
//
// POSIX rename() makes a file *visible* atomically, but the new directory
// entry itself lives in the page cache until the directory is fsynced: a
// power cut immediately after rename can bring the machine back up with the
// old directory contents and the fully-written file gone. Every
// temp-write -> rename publish path therefore ends with SyncDir() on the
// parent, and newly created append files (WAL segments) sync their parent
// once at creation so the segment cannot vanish out from under its synced
// contents.

// Both helpers fsync and therefore block for a device round-trip: they are
// DSTORE_BLOCKING and must run on worker threads, never on a reactor loop.

// fsyncs the directory itself (not its contents). An empty path syncs ".".
Status SyncDir(const std::filesystem::path& dir) DSTORE_BLOCKING;

// Writes the first `limit` bytes of `data` to a freshly created `path` and
// fsyncs it. `limit` below data.size() models a torn write for crash tests;
// pass data.size() for a normal full write. Does NOT sync the parent
// directory — publish paths do that after their rename.
Status WriteFileDurably(const std::filesystem::path& path, const Bytes& data,
                        size_t limit) DSTORE_BLOCKING;

// Reads all of `path`: NotFound if it does not exist, IOError on any other
// failure.
StatusOr<Bytes> ReadWholeFile(const std::filesystem::path& path);

// --- Record framing ---------------------------------------------------------
//
// The LSM's WAL segments and MANIFEST, the replication log and the SQL WAL
// are sequences of CRC-framed records:
//   [fixed32 payload_len][fixed32 crc32(payload)][payload]
// A torn tail (short header, short payload, or CRC mismatch) marks the end
// of the valid prefix; readers stop there and report how many bytes were
// good so the writer can truncate the tear away.

// Appends one framed record to `dst`.
void AppendFramedRecord(Bytes* dst, const Bytes& payload);

// Reads the framed record starting at *pos; advances *pos past it. Returns
// Corruption on a torn or corrupt record (with *pos unchanged).
StatusOr<Bytes> ReadFramedRecord(const Bytes& src, size_t* pos);

}  // namespace dstore

#endif  // DSTORE_STORE_FS_UTIL_H_
