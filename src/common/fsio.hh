/**
 * @file
 * Durable filesystem primitives for every layer that persists state:
 * campaign checkpoints and result files (src/exp).
 */

#ifndef USCOPE_COMMON_FSIO_HH
#define USCOPE_COMMON_FSIO_HH

#include <string>

namespace uscope
{

/**
 * Atomically AND durably replace @p path: write to `<path>.tmp`,
 * fsync the tmp file, rename over the destination, then fsync the
 * parent directory.  On POSIX the rename is atomic within a
 * directory, so concurrent readers — and a campaign resuming after a
 * kill — see either the old content or the new, never a prefix; the
 * two fsyncs extend that guarantee to *power loss*, not just process
 * death: without them the rename can reach disk before the data (the
 * classic ext4 zero-length-file hazard), or the rename itself can be
 * lost with the directory update still in the page cache.  Throws
 * SimFatal on any I/O failure;
 * filesystems that cannot fsync a directory (EINVAL/ENOTSUP) degrade
 * to the old atomic-only behavior with a warning.
 */
void writeFileAtomic(const std::string &path, const std::string &content);

/**
 * fsync a directory so a rename inside it survives power loss.  Some
 * filesystems refuse to fsync directories; that degrades durability,
 * not atomicity, so it warns instead of failing the caller.
 */
void fsyncDirectory(const std::string &dir);

} // namespace uscope

#endif // USCOPE_COMMON_FSIO_HH
