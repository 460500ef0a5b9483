package store

import "egwalker/internal/fsys"

// FS is the filesystem a DocStore's data files go through: segments,
// snapshots, and directory listings. The default (OSFS) is the real
// filesystem; tests and the fault-injecting simulator substitute an
// fsys.FaultFS so bit-flips, short reads, and ENOSPC are ordinary
// inputs instead of hand-built fixtures. The per-document LOCK file is
// deliberately NOT routed through this interface — inter-process
// exclusion must hold even while faults are being injected.
type FS = fsys.FS

// File is the open-file surface the store needs: sequential reads and
// writes, seeking (to find the append offset), fsync, close.
type File = fsys.File

// OSFS is the real filesystem.
type OSFS = fsys.OSFS
