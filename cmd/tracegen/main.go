// Command tracegen synthesizes the deployment traces of Table I.
//
//	tracegen -machine "Windows 7" -out win7.jsonl
//	tracegen -machine Linux-2 -format binary -out linux2.trace -aof-dir linux2.segs
//
// The trace file carries the write/delete event stream; -aof-dir
// additionally persists the populated TTKV as a segmented log, which
// ttkvd -aof-dir serves and the repair tool can be pointed at.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ocasta/internal/trace"
	"ocasta/internal/ttkv"
	"ocasta/internal/workload"
)

func main() {
	os.Exit(run())
}

// writeAndClose runs write against f and closes it, reporting the first
// failure. For generated artifacts the close error is part of the
// durability verdict: a kernel flush failing at close would otherwise
// leave a truncated trace behind a successful exit status.
func writeAndClose(f *os.File, write func(io.Writer) error) error {
	if err := write(f); err != nil {
		_ = f.Close() // returning the write error; close is cleanup
		return err
	}
	return f.Close()
}

func run() int {
	machine := flag.String("machine", "", "Table I machine name (see -list)")
	out := flag.String("out", "", "output trace file")
	format := flag.String("format", "jsonl", "trace format: jsonl or binary")
	aofDir := flag.String("aof-dir", "", "also write the populated TTKV as a segmented log in this directory")
	list := flag.Bool("list", false, "list machine profiles and exit")
	flag.Parse()

	if *list {
		for _, p := range workload.Profiles() {
			apps := make([]string, 0, len(p.Apps))
			for _, u := range p.Apps {
				apps = append(apps, u.Model.Name)
			}
			fmt.Printf("%-16s %3d days  apps: %s\n", p.Name, p.Days, strings.Join(apps, ", "))
		}
		return 0
	}
	if *machine == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -machine and -out are required (see -list)")
		return 2
	}
	p, ok := workload.ProfileByName(*machine)
	if !ok {
		fmt.Fprintf(os.Stderr, "tracegen: unknown machine %q\n", *machine)
		return 2
	}
	res := workload.Generate(p)

	var writeTrace func(io.Writer) error
	switch *format {
	case "binary":
		writeTrace = func(w io.Writer) error { return trace.WriteBinary(w, res.Trace) }
	case "jsonl":
		writeTrace = func(w io.Writer) error { return trace.WriteJSONL(w, res.Trace) }
	default:
		fmt.Fprintf(os.Stderr, "tracegen: unknown format %q\n", *format)
		return 2
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		return 1
	}
	if err := writeAndClose(f, writeTrace); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen: writing trace:", err)
		return 1
	}

	if *aofDir != "" {
		if err := res.Store.WriteSegmentDir(*aofDir, 0, ttkv.SegmentedConfig{}); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen: writing segments:", err)
			return 1
		}
	}

	st := res.Store.Stats()
	fmt.Printf("%s: %d events, %d keys accessed, %d writes, %d reads, TTKV %.1f MiB\n",
		p.Name, len(res.Trace.Events), res.AccessedKeys,
		st.Writes+st.Deletes, st.Reads, float64(st.ApproxBytes)/(1<<20))
	return 0
}
