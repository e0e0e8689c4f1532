package ttkvwire

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"ocasta/internal/backup"
)

// This file is the wire surface of the backup subsystem: the BACKUP and
// BSTAT commands on the server, and Client.Backup / Client.Backups on
// the client. Both commands are read-side — a backup pins a sequence
// bound and scans under per-shard read locks, never blocking writers —
// so a read-only replica serves them, letting operators point backup
// schedules at a replica and keep the primary's latency budget intact.

// cmdBackup takes a backup now. Usage: BACKUP [AUTO|FULL|INCR], AUTO
// being the default (full into an empty directory, incremental after).
// Concurrent BACKUP commands serialize on the manager; the store is
// never blocked. Reply: one backupValue row.
func (s *Server) cmdBackup(_ *connState, args []string) Value {
	mode := "AUTO"
	if len(args) == 1 {
		mode = strings.ToUpper(args[0])
	}
	var man *backup.Manifest
	var err error
	switch mode {
	case "AUTO":
		man, err = s.backups.Auto()
	case "FULL":
		man, err = s.backups.Full()
	case "INCR":
		man, err = s.backups.Incremental()
	default:
		return errValue(commands["BACKUP"].usage)
	}
	if err != nil {
		return errValue("ERR " + err.Error())
	}
	return backupValue(man)
}

// cmdBackupStat lists the directory's backups, oldest first. Usage:
// BSTAT. Reply: array of backupValue rows.
func (s *Server) cmdBackupStat(_ *connState, _ []string) Value {
	mans, err := s.backups.List()
	if err != nil {
		return errValue("ERR " + err.Error())
	}
	out := make([]Value, len(mans))
	for i, m := range mans {
		out[i] = backupValue(m)
	}
	return array(out...)
}

// backupValue renders one manifest as a 9-element array:
// id, kind, parent ("-" for fulls), then base, upto, records, bytes,
// files, created-unixnanos as bulk integers.
func backupValue(m *backup.Manifest) Value {
	parent := m.Parent
	if parent == "" {
		parent = "-"
	}
	return array(
		bulk(m.ID), bulk(m.Kind), bulk(parent),
		bulkInt(int64(m.Base)), bulkInt(int64(m.UpTo)),
		bulkInt(int64(m.Records())), bulkInt(m.TotalBytes()),
		bulkInt(int64(len(m.Files))), bulkInt(m.Created),
	)
}

// BackupInfo is a parsed BACKUP/BSTAT row: one backup as the server
// described it.
type BackupInfo struct {
	// ID names the backup; Parent is the backup it increments on ("" for
	// a full backup).
	ID     string
	Kind   string // "full" or "incr"
	Parent string
	// Base and UpTo bound the covered sequence range (Base, UpTo].
	Base uint64
	UpTo uint64
	// Records and Bytes total the archived data across Files record
	// files.
	Records uint64
	Bytes   int64
	Files   int
	// Created is when the backup was taken.
	Created time.Time
}

// Backup asks the server to take a backup now. kind is "auto", "full",
// or "incr" ("" means auto). The call returns when the backup is
// durably on disk.
func (c *Client) Backup(kind string) (BackupInfo, error) {
	return c.BackupContext(context.Background(), kind)
}

// BackupContext is Backup with a context.
func (c *Client) BackupContext(ctx context.Context, kind string) (BackupInfo, error) {
	args := []string{"BACKUP"}
	if kind != "" {
		args = append(args, strings.ToUpper(kind))
	}
	v, err := c.roundTrip(ctx, args...)
	if err != nil {
		return BackupInfo{}, err
	}
	return decodeBackupInfo(v)
}

// Backups fetches the server's backup catalog, oldest first.
func (c *Client) Backups() ([]BackupInfo, error) {
	return c.BackupsContext(context.Background())
}

// BackupsContext is Backups with a context.
func (c *Client) BackupsContext(ctx context.Context) ([]BackupInfo, error) {
	v, err := c.roundTrip(ctx, "BSTAT")
	if err != nil {
		return nil, err
	}
	if v.Kind != KindArray {
		return nil, fmt.Errorf("%w: unexpected BSTAT reply %+v", ErrProtocol, v)
	}
	out := make([]BackupInfo, len(v.Array))
	for i, el := range v.Array {
		if out[i], err = decodeBackupInfo(el); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// decodeBackupInfo parses one backupValue row.
func decodeBackupInfo(v Value) (BackupInfo, error) {
	bad := func() (BackupInfo, error) {
		return BackupInfo{}, fmt.Errorf("%w: unexpected backup reply %+v", ErrProtocol, v)
	}
	if v.Kind != KindArray || len(v.Array) != 9 {
		return bad()
	}
	for _, el := range v.Array {
		if el.Kind != KindBulk {
			return bad()
		}
	}
	ints := make([]uint64, 6)
	for i := range ints {
		n, err := strconv.ParseUint(v.Array[3+i].Str, 10, 64)
		if err != nil {
			return bad()
		}
		ints[i] = n
	}
	info := BackupInfo{
		ID:      v.Array[0].Str,
		Kind:    v.Array[1].Str,
		Parent:  v.Array[2].Str,
		Base:    ints[0],
		UpTo:    ints[1],
		Records: ints[2],
		Bytes:   int64(ints[3]),
		Files:   int(ints[4]),
		Created: time.Unix(0, int64(ints[5])).UTC(),
	}
	if info.Parent == "-" {
		info.Parent = ""
	}
	return info, nil
}
