package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"ocasta/internal/backup"
	"ocasta/internal/ttkv"
)

// runRestore implements "ttkvd restore": offline point-in-time recovery
// from a backup directory into a fresh segment directory (serve it with
// -aof-dir), plus -verify-only for restore drills. It is a separate mode
// rather than a daemon flag because disaster recovery must not depend on
// a healthy daemon — it reads only the backup set and writes only the
// new segments.
//
//	ttkvd restore -backup-dir /var/backups/ocasta -out /var/lib/ocasta/segments
//	ttkvd restore -backup-dir ... -out ... -at 2026-08-07T12:00:00Z
//	ttkvd restore -backup-dir ... -out ... -at 123456
//	ttkvd restore -backup-dir ... -verify-only
func runRestore(argv []string) int {
	fs := flag.NewFlagSet("ttkvd restore", flag.ExitOnError)
	dir := fs.String("backup-dir", "", "backup directory to restore from (required)")
	out := fs.String("out", "", "segment directory for the restored log (required unless -verify-only)")
	at := fs.String("at", "", "restore point: a store sequence number or an RFC 3339 time (default: everything the newest backup covers)")
	shards := fs.Int("shards", ttkv.DefaultShards, "shard count of the staging store the chain is replayed into")
	verifyOnly := fs.Bool("verify-only", false, "verify the backup set (checksums, ranges, chains) and exit without restoring")
	force := fs.Bool("force", false, "supersede an existing log in a non-empty -out directory")
	fs.Parse(argv) //nolint:errcheck — ExitOnError

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "ttkvd restore: -backup-dir is required")
		return 2
	}
	if *verifyOnly {
		return runVerify(*dir)
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "ttkvd restore: -out is required (or pass -verify-only)")
		return 2
	}
	if !*force && inUse(*out) {
		fmt.Fprintf(os.Stderr, "ttkvd restore: %s exists and is not empty; pass -force to overwrite\n", *out)
		return 2
	}
	target, err := backup.ParseTarget(*at)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttkvd restore: -at:", err)
		return 2
	}

	start := time.Now()
	info, err := backup.RestoreToDir(*dir, target, *out, *shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttkvd restore:", err)
		return 1
	}
	fmt.Printf("ttkvd restore: %d of %d records (chain of %d, head %s, covers up to seq %d) -> %s, applied seq %d, in %v\n",
		info.RecordsApplied, info.RecordsRead, info.ChainLen, info.HeadID, info.UpTo, *out,
		info.AppliedSeq, time.Since(start).Round(time.Millisecond))
	return 0
}

// runVerify prints a verification report for a backup directory;
// exit 0 means every backup in it is restorable.
func runVerify(dir string) int {
	rep, err := backup.VerifyDir(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttkvd restore:", err)
		return 1
	}
	fmt.Printf("ttkvd restore: verified %s: %d backups (%d full), %d record files, %d records, %d bytes\n",
		dir, rep.Manifests, rep.Fulls, rep.DataFiles, rep.Records, rep.Bytes)
	if len(rep.TempFiles) > 0 {
		fmt.Printf("ttkvd restore: %d temp files from an interrupted backup (harmless; swept by pruning)\n", len(rep.TempFiles))
	}
	if len(rep.Orphans) > 0 {
		fmt.Printf("ttkvd restore: %d unreferenced record files (harmless; swept by pruning)\n", len(rep.Orphans))
	}
	if !rep.OK() {
		for _, issue := range rep.Issues {
			fmt.Fprintln(os.Stderr, "ttkvd restore: ISSUE:", issue)
		}
		fmt.Fprintf(os.Stderr, "ttkvd restore: verification FAILED with %d issues\n", len(rep.Issues))
		return 1
	}
	fmt.Println("ttkvd restore: verification OK")
	return 0
}

// runImportAOF implements "ttkvd import-aof": a one-shot offline
// migration of a flat append-only file (the OCKV record stream earlier
// releases logged to, and WriteSnapshot still emits) into a segment
// directory a daemon then serves with -aof-dir. Records replay in file
// order, so the segments carry the histories and sequence numbers the
// flat file's own replay produced.
//
//	ttkvd import-aof -in /var/lib/ocasta/store.aof -out /var/lib/ocasta/segments
func runImportAOF(argv []string) int {
	fs := flag.NewFlagSet("ttkvd import-aof", flag.ExitOnError)
	in := fs.String("in", "", "flat append-only file to import (required)")
	out := fs.String("out", "", "segment directory to write (required; must be absent or empty)")
	fs.Parse(argv) //nolint:errcheck — ExitOnError

	if *in == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "ttkvd import-aof: -in and -out are required")
		return 2
	}
	if inUse(*out) {
		fmt.Fprintf(os.Stderr, "ttkvd import-aof: %s exists and is not empty\n", *out)
		return 2
	}
	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttkvd import-aof:", err)
		return 1
	}
	//ocasta:allow stickyerr file opened read-only; no buffered writes to lose
	defer f.Close()
	store := ttkv.New()
	if err := ttkv.ReadAOFInto(f, store); err != nil {
		fmt.Fprintf(os.Stderr, "ttkvd import-aof: reading %s: %v\n", *in, err)
		return 1
	}
	if err := store.WriteSegmentDir(*out, 0, ttkv.SegmentedConfig{}); err != nil {
		fmt.Fprintln(os.Stderr, "ttkvd import-aof:", err)
		return 1
	}
	fmt.Printf("ttkvd import-aof: %d keys, %d records from %s -> %s\n", store.Len(), store.CurrentSeq(), *in, *out)
	return 0
}

// inUse reports whether path exists as anything but an empty directory:
// the offline writers refuse to replace what is there by default.
func inUse(path string) bool {
	ents, err := os.ReadDir(path)
	if errors.Is(err, os.ErrNotExist) {
		return false
	}
	return err != nil || len(ents) > 0
}
