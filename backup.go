package ocasta

import (
	"ocasta/internal/backup"
	"ocasta/internal/ttkvwire"
)

// Re-exported backup and disaster-recovery types.
type (
	// BackupManager takes full and incremental backups of one store into
	// one self-verifying directory, with retention pruning. Construct
	// with NewBackupManager; enable the wire commands with
	// Server.SetBackups.
	BackupManager = backup.Manager
	// BackupOptions tunes a BackupManager (record-file segment size).
	BackupOptions = backup.Options
	// BackupManifest describes one backup: identity, covered sequence
	// range, parent chain link, and checksummed record files.
	BackupManifest = backup.Manifest
	// BackupFileInfo is one record file of a backup.
	BackupFileInfo = backup.FileInfo
	// BackupReport is the result of verifying a backup directory.
	BackupReport = backup.Report
	// BackupIssue is one verification failure in a BackupReport.
	BackupIssue = backup.Issue
	// BackupPruneResult summarizes what a retention prune removed.
	BackupPruneResult = backup.PruneResult
	// BackupTarget selects the point in time a restore materializes; the
	// zero value means "latest".
	BackupTarget = backup.Target
	// BackupRestoreInfo describes what a restore replayed.
	BackupRestoreInfo = backup.RestoreInfo
	// BackupInfo is a parsed BACKUP/BSTAT reply row (Client.Backup,
	// Client.Backups).
	BackupInfo = ttkvwire.BackupInfo
)

// NewBackupManager returns a manager writing backups of store into dir,
// creating the directory if needed. Backups pin a sequence bound and
// scan under per-shard read locks, so they run against live traffic
// without blocking writers — on a primary or on a read replica.
func NewBackupManager(store *Store, dir string, opts BackupOptions) (*BackupManager, error) {
	return backup.NewManager(store, dir, opts)
}

// VerifyBackups checks every backup in dir — manifest checksums, record
// file sizes and SHA-256s, sequence-range tiling, incremental ancestry —
// without replaying any data.
func VerifyBackups(dir string) (*BackupReport, error) { return backup.VerifyDir(dir) }

// ParseBackupTarget parses a restore point: "" is latest, a bare
// decimal integer a store sequence number, anything else an RFC 3339
// timestamp.
func ParseBackupTarget(s string) (BackupTarget, error) { return backup.ParseTarget(s) }

// RestoreBackup materializes the backed-up store at target into a fresh
// in-memory store (shards 0 for the default count), replaying the
// newest intact backup chain that covers the target. The restored store
// carries the original's exact per-version histories and sequence
// numbers.
func RestoreBackup(dir string, target BackupTarget, shards int) (*Store, *BackupRestoreInfo, error) {
	return backup.Restore(dir, target, shards)
}

// RestoreBackupToDir restores at target and writes the result into
// outDir as a fresh generation of sealed segments, committed by one
// atomic index swap — what "ttkvd restore" runs. Serve it with
// OpenStore(StoreOptions{AOFDir: outDir}) or ttkvd -aof-dir.
func RestoreBackupToDir(dir string, target BackupTarget, outDir string, shards int) (*BackupRestoreInfo, error) {
	return backup.RestoreToDir(dir, target, outDir, shards)
}
