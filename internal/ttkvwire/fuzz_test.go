package ttkvwire

import (
	"bufio"
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ocasta/internal/core"
	"ocasta/internal/ttkv"
)

// FuzzReadValue feeds arbitrary bytes to the wire protocol parser and
// checks the value-level roundtrip property: any value the parser
// accepts, the writer re-serializes into bytes the parser accepts again
// as a deeply-equal value. This pins both directions of the codec against
// each other — a parser that accepts malformed framing, or a writer that
// emits it, breaks the property — while hammering the length-prefix
// guards (maxBulkLen, maxArrayLen) that keep hostile peers from forcing
// giant allocations or deep recursion.
func FuzzReadValue(f *testing.F) {
	// One seed per protocol shape, plus malformed framing.
	seeds := []string{
		"+OK\r\n",
		"-ERR boom\r\n",
		":42\r\n",
		":-7\r\n",
		"$5\r\nhello\r\n",
		"$0\r\n\r\n",
		"$-1\r\n",
		"$3\r\nb\x00b\r\n",
		"*0\r\n",
		"*2\r\n$3\r\nSET\r\n$1\r\nk\r\n",
		"*2\r\n*1\r\n:1\r\n$2\r\nab\r\n", // nested array
		"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n",
		"$10\r\nshort\r\n",    // length longer than payload
		"$99999999999999\r\n", // over maxBulkLen
		"*99999999999999\r\n", // over maxArrayLen
		"+no-terminator",      // missing CRLF
		"+bare-lf\n",          // LF without CR
		"?1\r\n",              // unknown type byte
		"\r\n",                // empty line
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := ReadValue(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := WriteValue(bw, v); err != nil {
			t.Fatalf("re-serializing accepted value %+v: %v", v, err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		v2, err := ReadValue(bufio.NewReader(bytes.NewReader(buf.Bytes())))
		if err != nil {
			t.Fatalf("re-parsing serialized value %+v (bytes %q): %v", v, buf.Bytes(), err)
		}
		if !reflect.DeepEqual(v, v2) {
			t.Fatalf("roundtrip altered value:\n in: %+v\nout: %+v\nbytes: %q", v, v2, buf.Bytes())
		}
	})
}

// FuzzDispatch feeds arbitrary requests — arrays of bulk strings, given
// NUL-separated in the fuzz input — to the command dispatcher of a server
// with cluster mode and analytics enabled. serveConn has no recover, so a
// handler that indexes past its arity gate would take the whole daemon
// down. The properties: no panic, and a reply that the codec serializes
// as exactly one well-formed value. Replication stays off, so SYNC is
// refused before its handler would take over the (absent) connection.
func FuzzDispatch(f *testing.F) {
	// One arity-valid and one short request per command; arguments are
	// "1", which parses as every argument type (key, value, time, slot,
	// count).
	for _, c := range commandTable {
		valid := append([]string{c.name}, slices.Repeat([]string{"1"}, c.min)...)
		f.Add([]byte(strings.Join(valid, "\x00")))
		if c.min > 0 {
			f.Add([]byte(strings.Join(valid[:c.min], "\x00")))
		}
	}

	store := ttkv.New()
	engine := core.NewEngine(core.EngineConfig{})
	store.SetStatsObserver(engine)
	srv := NewServer(store)
	srv.SetAnalytics(engine)
	owned := []SlotRange{{Lo: 0, Hi: dispatchSlots/2 - 1}}
	peers := []SlotRange{{Lo: dispatchSlots / 2, Hi: dispatchSlots - 1, Addr: dispatchPeer}}
	if err := srv.EnableCluster(dispatchSlots, owned, peers); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })

	f.Fuzz(func(t *testing.T, data []byte) {
		var req Value
		req.Kind = KindArray
		for _, a := range strings.Split(string(data), "\x00") {
			req.Array = append(req.Array, bulk(a))
		}
		resp := srv.dispatch(&connState{}, req)

		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := WriteValue(bw, resp); err != nil {
			t.Fatalf("reply %+v does not serialize: %v", resp, err)
		}
		bw.Flush()
		br := bufio.NewReader(bytes.NewReader(buf.Bytes()))
		if _, err := ReadValue(br); err != nil {
			t.Fatalf("reply bytes %q do not parse: %v", buf.Bytes(), err)
		}
		if br.Buffered() != 0 {
			t.Fatalf("reply bytes %q hold more than one value", buf.Bytes())
		}
	})
}
