package ttkvwire

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"ocasta/internal/backup"
	"ocasta/internal/core"
	"ocasta/internal/ttkv"
)

// dispatchSlots is the slot space of the pinned servers: this node owns
// 0-7, a peer at dispatchPeer owns 8-15.
const (
	dispatchSlots = 16
	dispatchPeer  = "10.0.0.9:7000"
)

// startDispatchServer serves a fresh store on loopback and returns a raw
// connection to it. full enables every optional subsystem (replication,
// cluster mode, analytics, backups); otherwise the server is bare.
func startDispatchServer(t *testing.T, full, readOnly bool) (net.Conn, *bufio.Reader) {
	t.Helper()
	store := ttkv.New()
	srv := NewServer(store)
	if full {
		rl := ttkv.NewReplLog(nil)
		if err := store.AttachReplLog(rl); err != nil {
			t.Fatal(err)
		}
		srv.EnableReplication(rl, ReplicationConfig{})
		owned := []SlotRange{{Lo: 0, Hi: dispatchSlots/2 - 1}}
		peers := []SlotRange{{Lo: dispatchSlots / 2, Hi: dispatchSlots - 1, Addr: dispatchPeer}}
		if err := srv.EnableCluster(dispatchSlots, owned, peers); err != nil {
			t.Fatal(err)
		}
		srv.SetAnalytics(core.NewEngine(core.EngineConfig{}))
		mgr, err := backup.NewManager(store, t.TempDir(), backup.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv.SetBackups(mgr)
	}
	srv.SetReadOnly(readOnly)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, bufio.NewReader(conn)
}

// respRequest encodes args as a RESP array of bulk strings.
func respRequest(args ...string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "*%d\r\n", len(args))
	for _, a := range args {
		fmt.Fprintf(&b, "$%d\r\n%s\r\n", len(a), a)
	}
	return b.String()
}

// dispatchKey returns a key whose slot this node owns (owned) or the
// peer owns (!owned), with its slot.
func dispatchKey(t *testing.T, owned bool) (string, int) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("k%d", i)
		if slot := ttkv.KeySlot(k, dispatchSlots); (slot < dispatchSlots/2) == owned {
			return k, slot
		}
	}
	t.Fatal("no key found")
	return "", 0
}

// TestDispatchRepliesPinned pins the exact reply bytes of the command
// dispatcher's refusal paths: bad arity for every command in both
// directions, case-insensitive lookup, malformed requests, and the order
// in which the availability, slot, read-only and arity gates apply.
func TestDispatchRepliesPinned(t *testing.T) {
	mine, _ := dispatchKey(t, true)
	theirs, theirSlot := dispatchKey(t, false)
	usage := func(text string) string { return "-ERR usage: " + text + "\r\n" }
	const (
		analyticsOff = "-ERR analytics disabled (run ttkvd with -recluster-interval > 0)\r\n"
		backupsOff   = "-ERR backups disabled (run ttkvd with -backup-dir)\r\n"
	)
	type pinned struct {
		req  string // raw request bytes
		want string // raw reply bytes
	}
	req := respRequest
	full := []pinned{
		{req("SET", mine, "v"), usage("SET key value unixnanos")},
		{req("SET", mine, "v", "1", "x"), usage("SET key value unixnanos")},
		{req("MSET"), usage("MSET key value unixnanos [key value unixnanos ...]")},
		{req("MSET", mine, "v"), usage("MSET key value unixnanos [key value unixnanos ...]")},
		{req("MSET", mine, "v", "1", "x"), usage("MSET key value unixnanos [key value unixnanos ...]")},
		{req("DEL", mine), usage("DEL key unixnanos")},
		{req("DEL", mine, "1", "x"), usage("DEL key unixnanos")},
		{req("GET"), usage("GET key")},
		{req("GET", mine, "x"), usage("GET key")},
		{req("GETAT", mine), usage("GETAT key unixnanos")},
		{req("GETAT", mine, "1", "x"), usage("GETAT key unixnanos")},
		{req("HIST"), usage("HIST key")},
		{req("HIST", mine, "x"), usage("HIST key")},
		{req("KEYS", "x"), usage("KEYS")},
		{req("MODCOUNT"), usage("MODCOUNT key")},
		{req("MODCOUNT", mine, "x"), usage("MODCOUNT key")},
		{req("MODTIMES"), usage("MODTIMES key [key...]")},
		{req("STATS", "x"), usage("STATS")},
		{req("CLUSTERS", "1", "2"), usage("CLUSTERS [minsize]")},
		{req("CORR", "a"), usage("CORR keyA keyB")},
		{req("CORR", "a", "b", "c"), usage("CORR keyA keyB")},
		{req("REPAIR", "a", "b", "c"), usage("REPAIR app trial fixed broken [opt val ...]")},
		{req("REPAIR", "a", "b", "c", "d", "e"), usage("REPAIR app trial fixed broken [opt val ...]")},
		{req("RSTAT"), usage("RSTAT jobid")},
		{req("RSTAT", "a", "b"), usage("RSTAT jobid")},
		{req("RFIX", "a"), usage("RFIX jobid unixnanos")},
		{req("RFIX", "a", "1", "x"), usage("RFIX jobid unixnanos")},
		{req("REPLSTAT", "x"), usage("REPLSTAT")},
		{req("BACKUP", "FULL", "x"), usage("BACKUP [AUTO|FULL|INCR]")},
		{req("BACKUP", "nope"), usage("BACKUP [AUTO|FULL|INCR]")},
		{req("BSTAT", "x"), usage("BSTAT")},
		{req("TOPO", "x"), usage("TOPO")},
		{req("SEMISYNC"), usage("SEMISYNC acks")},
		{req("SEMISYNC", "1", "2"), usage("SEMISYNC acks")},
		{req("MIGSTART", "1"), usage("MIGSTART slot sourceRunID")},
		{req("MIGSTART", "1", "r", "x"), usage("MIGSTART slot sourceRunID")},
		{req("MIGDUMP", "1", "0"), usage("MIGDUMP slot afterSeq limit")},
		{req("MIGDUMP", "1", "0", "5", "x"), usage("MIGDUMP slot afterSeq limit")},
		{req("MIGAPPLY", "1"), usage("MIGAPPLY slot [srcseq key value unixnanos deleted ...]")},
		{req("MIGAPPLY", "1", "2", mine, "v", "1", "0", "x"), usage("MIGAPPLY slot [srcseq key value unixnanos deleted ...]")},
		{req("MIGFENCE"), usage("MIGFENCE slot")},
		{req("MIGFENCE", "1", "x"), usage("MIGFENCE slot")},
		{req("MIGABORT"), usage("MIGABORT slot")},
		{req("MIGABORT", "1", "x"), usage("MIGABORT slot")},
		{req("MIGTAKE"), usage("MIGTAKE slot")},
		{req("MIGTAKE", "1", "x"), usage("MIGTAKE slot")},
		{req("MIGFLIP", "1"), usage("MIGFLIP slot newOwnerAddr")},
		{req("MIGFLIP", "1", "a", "x"), usage("MIGFLIP slot newOwnerAddr")},
		{req("MIGFLIP", "1", ""), usage("MIGFLIP slot newOwnerAddr")},
		{req("SYNC", "0"), usage("SYNC afterSeq runid [replicaid]")},
		{req("SYNC", "0", "r", "x", "y"), usage("SYNC afterSeq runid [replicaid]")},

		// Lookup is case-insensitive; unknown verbs echo upper-cased.
		{req("get", mine, "x"), usage("GET key")},
		{req("Ping"), "+PONG\r\n"},
		{req("bogus"), "-ERR unknown command 'BOGUS'\r\n"},

		// Malformed requests.
		{"+hi\r\n", "-ERR request must be a non-empty array\r\n"},
		{"*0\r\n", "-ERR request must be a non-empty array\r\n"},
		{"*2\r\n$3\r\nGET\r\n:1\r\n", "-ERR request elements must be bulk strings\r\n"},
		{"*2\r\n:1\r\n$1\r\nk\r\n", "-ERR request elements must be bulk strings\r\n"},

		// The slot check runs before arity: a malformed write for a
		// foreign slot is redirected, not rejected.
		{req("SET", theirs, "v"), fmt.Sprintf("-MOVED %s slot %d\r\n", dispatchPeer, theirSlot)},
		{req("GET", theirs, "x"), fmt.Sprintf("-MOVED %s slot %d\r\n", dispatchPeer, theirSlot)},
	}
	bare := []pinned{
		// Availability is reported before arity.
		{req("CLUSTERS", "1", "2"), analyticsOff},
		{req("CORR"), analyticsOff},
		{req("BACKUP", "a", "b"), backupsOff},
		{req("BSTAT", "x"), backupsOff},
		{req("SYNC", "0"), "-ERR replication not enabled on this server\r\n"},
		// MIG* check arity before cluster mode.
		{req("MIGSTART"), usage("MIGSTART slot sourceRunID")},
		{req("MIGSTART", "1", "r"), "-ERR cluster mode not enabled\r\n"},
		{req("MIGFENCE", "1"), "-ERR cluster mode not enabled\r\n"},
		// PING ignores extra arguments.
		{req("PING", "a", "b"), "+PONG\r\n"},
	}
	readOnly := []pinned{
		// The read-only check runs before arity.
		{req("SET", "k", "v"), "-READONLY this node is a read replica; send writes to the primary\r\n"},
		{req("MIGAPPLY", "1"), "-READONLY this node is a read replica; send writes to the primary\r\n"},
		{req("GET", "k", "x"), usage("GET key")},
	}

	for _, set := range []struct {
		name           string
		full, readOnly bool
		cases          []pinned
	}{
		{"full", true, false, full},
		{"bare", false, false, bare},
		{"readonly", false, true, readOnly},
	} {
		t.Run(set.name, func(t *testing.T) {
			conn, br := startDispatchServer(t, set.full, set.readOnly)
			for _, c := range set.cases {
				conn.SetDeadline(time.Now().Add(5 * time.Second))
				if _, err := conn.Write([]byte(c.req)); err != nil {
					t.Fatal(err)
				}
				got, err := br.ReadString('\n')
				if err != nil {
					t.Fatalf("request %q: %v", c.req, err)
				}
				if got != c.want {
					t.Errorf("request %q:\n got %q\nwant %q", c.req, got, c.want)
				}
			}
		})
	}
}
