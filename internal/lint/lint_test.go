package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

func parseSrc(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "d.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

func TestParseDirectivesRejectsMalformedAllows(t *testing.T) {
	fset, f := parseSrc(t, `package p

func a() {
	//ocasta:allow
	_ = 1
	//ocasta:allow stickyerr
	_ = 2
	//ocasta:allow stickyerr the file is read-only
	_ = 3
}
`)
	d, diags := ParseDirectives(fset, []*ast.File{f})
	if len(diags) != 2 {
		t.Fatalf("got %d directive diagnostics, want 2: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "requires an analyzer name and a justification") {
		t.Errorf("bare allow diagnostic = %q", diags[0].Message)
	}
	if !strings.Contains(diags[1].Message, "requires a justification string") {
		t.Errorf("justification-less allow diagnostic = %q", diags[1].Message)
	}
	// Only the well-formed allow (line 8) suppresses — on its own line
	// and the line below.
	for _, line := range []int{8, 9} {
		if !d.Allowed("stickyerr", token.Position{Filename: "d.go", Line: line}) {
			t.Errorf("well-formed allow does not cover line %d", line)
		}
	}
	// The malformed ones suppress nothing.
	for _, line := range []int{4, 5, 6, 7} {
		if d.Allowed("stickyerr", token.Position{Filename: "d.go", Line: line}) {
			t.Errorf("malformed allow wrongly suppresses line %d", line)
		}
	}
}

func TestParseDirectivesAllowIsPerAnalyzer(t *testing.T) {
	fset, f := parseSrc(t, `package p

func a() {
	//ocasta:allow lockorder indices disjoint by construction
	_ = 1
}
`)
	d, diags := ParseDirectives(fset, []*ast.File{f})
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", diags)
	}
	pos := token.Position{Filename: "d.go", Line: 5}
	if !d.Allowed("lockorder", pos) {
		t.Error("allow does not cover its own analyzer")
	}
	if d.Allowed("stickyerr", pos) {
		t.Error("allow leaks across analyzers")
	}
}

func TestParseDirectivesUnknownVerb(t *testing.T) {
	fset, f := parseSrc(t, `package p

//ocasta:frobnicate
func a() {}
`)
	_, diags := ParseDirectives(fset, []*ast.File{f})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "unknown directive") {
		t.Fatalf("diagnostics = %v, want one unknown-directive report", diags)
	}
}

func TestCollectAnnotationsFromSource(t *testing.T) {
	fset, f := parseSrc(t, `package p

type obs interface {
	//ocasta:nolock
	Notify(k string)
}

type gc struct {
	//ocasta:nolock
	onCommit func(uint64)
	//ocasta:atomic
	gen uint64
}

//ocasta:durable
type wal struct{}

//ocasta:lockfn
func lockAll() func() { return nil }
`)
	// Type-check with no imports so Defs is populated.
	pkg, err := typeCheckForTest(fset, f)
	if err != nil {
		t.Fatal(err)
	}
	ann := NewAnnotations()
	ann.CollectAnnotations([]*Package{pkg})
	for key, m := range map[string]map[string]bool{
		"(p.obs).Notify": ann.NoLock,
		"p.gc.onCommit":  ann.NoLock,
		"p.gc.gen":       ann.AtomicFields,
		"p.wal":          ann.Durable,
		"p.lockAll":      ann.LockFns,
	} {
		if !m[key] {
			t.Errorf("annotation %q not collected", key)
		}
	}
}

// TestBuiltinSeeds pins the cross-package annotation seeds that must
// hold even when the declaring package is loaded from export data: the
// MVCC publication fields and the durable log types.
func TestBuiltinSeeds(t *testing.T) {
	ann := NewAnnotations()
	for _, key := range []string{
		"ocasta/internal/ttkv.record.state",
		"ocasta/internal/ttkv.shard.records",
		"ocasta/internal/ttkv.publisher.visible",
	} {
		if !ann.AtomicFields[key] {
			t.Errorf("atomic-field seed %q missing", key)
		}
	}
	for _, key := range []string{
		"ocasta/internal/ttkv.SegmentedAOF",
		"ocasta/internal/ttkv.GroupCommit",
	} {
		if !ann.Durable[key] {
			t.Errorf("durable seed %q missing", key)
		}
	}
}

func typeCheckForTest(fset *token.FileSet, f *ast.File) (*Package, error) {
	info := NewInfo()
	var conf types.Config
	tpkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		return nil, err
	}
	return &Package{Fset: fset, Syntax: []*ast.File{f}, Types: tpkg, Info: info}, nil
}
