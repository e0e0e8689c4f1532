// Package lint is the project's static-analysis framework: a minimal,
// dependency-free analogue of golang.org/x/tools/go/analysis that the
// ocastalint analyzers run on. The repo's concurrency and durability
// conventions — shard locks are taken in ascending index order, observers
// are notified outside locks, sequence numbers are minted inside the sink
// critical section, snapshots are published only through atomic pointers,
// durability-bearing errors are never dropped — are stated in comments all
// over internal/ttkv and internal/core; this package and its analyzers
// turn them into machine-checked rules (cmd/ocastalint, wired into CI as a
// blocking step).
//
// # Annotation vocabulary
//
// Rules are driven by directive comments placed on declarations:
//
//	//ocasta:nolock   on a function, interface method, or func-typed
//	                  struct field: it must never be called while a
//	                  tracked mutex is held (nocallunderlock).
//	//ocasta:lockfn   on a function: calling it acquires locks; invoking
//	                  the function value it returns releases them
//	                  (ttkv.Store.lockShardsFor is the archetype).
//	//ocasta:durable  on a type: error results of its methods carry a
//	                  durability verdict and must be checked (stickyerr).
//	//ocasta:atomic   on a struct field: every access must go through
//	                  sync/atomic (atomicsnapshot).
//
// A diagnostic is suppressed by an allow directive on the same line or the
// line directly above, and the justification string is mandatory:
//
//	//ocasta:allow <analyzer> <justification>
//
// An allow without a justification is itself reported and does not
// suppress anything.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named static-analysis rule.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //ocasta:allow directives.
	Name string
	// Doc is the one-paragraph description printed by ocastalint -list.
	Doc string
	// SkipTests excludes _test.go files from the run (stickyerr sets it:
	// tests legitimately discard teardown errors).
	SkipTests bool
	// Run reports the analyzer's findings on one package via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Ann is the annotation index, built from every package loaded in
	// this run plus the built-in seeds, so cross-package contracts
	// (ttkv.StatsObserver.ObserveWrite, os.File, ...) hold even when the
	// declaring package is only available as export data.
	Ann *Annotations

	report func(Diagnostic)
}

// Reportf records one diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Fset   *token.FileSet
	Syntax []*ast.File
	Types  *types.Package
	Info   *types.Info
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// Directive prefixes.
const (
	directivePrefix = "//ocasta:"
	allowDirective  = "//ocasta:allow"
)

// declDirectives are the directives that attach to declarations.
var declDirectives = map[string]bool{
	"nolock":  true,
	"lockfn":  true,
	"durable": true,
	"atomic":  true,
}

// allowKey locates one allow directive: a file/line pair plus the analyzer
// it suppresses.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// Directives indexes a package's //ocasta:allow comments for suppression
// lookups.
type Directives struct {
	allows map[allowKey]bool
}

// ParseDirectives scans every comment in files for //ocasta: directives,
// indexing well-formed allows and reporting malformed ones (an allow
// without a justification, or an unknown directive verb) — a suppression
// that cannot explain itself is rejected rather than honored.
func ParseDirectives(fset *token.FileSet, files []*ast.File) (*Directives, []Diagnostic) {
	d := &Directives{allows: make(map[allowKey]bool)}
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Analyzer: "ocastadirective",
			Pos:      fset.Position(pos),
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				// Strip a trailing linttest expectation so testdata can
				// assert diagnostics reported on directive comments
				// themselves; "// want" never occurs in a real
				// justification.
				if i := strings.Index(text, " // want"); i >= 0 {
					text = strings.TrimRight(text[:i], " \t")
				}
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				if strings.HasPrefix(text, allowDirective) {
					rest := strings.TrimPrefix(text, allowDirective)
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						report(c.Pos(), "//ocasta:allow requires an analyzer name and a justification")
						continue
					}
					if len(fields) < 2 {
						report(c.Pos(), "//ocasta:allow %s requires a justification string", fields[0])
						continue
					}
					pos := fset.Position(c.Pos())
					d.allows[allowKey{file: pos.Filename, line: pos.Line, analyzer: fields[0]}] = true
					continue
				}
				verb := strings.TrimPrefix(text, directivePrefix)
				if i := strings.IndexAny(verb, " \t"); i >= 0 {
					verb = verb[:i]
				}
				if !declDirectives[verb] {
					report(c.Pos(), "unknown directive //ocasta:%s (known: nolock, lockfn, durable, atomic, allow)", verb)
				}
			}
		}
	}
	return d, diags
}

// Allowed reports whether a diagnostic from analyzer at pos is suppressed:
// a well-formed //ocasta:allow <analyzer> <justification> sits on the same
// line or the line directly above.
func (d *Directives) Allowed(analyzer string, pos token.Position) bool {
	return d.allows[allowKey{file: pos.Filename, line: pos.Line, analyzer: analyzer}] ||
		d.allows[allowKey{file: pos.Filename, line: pos.Line - 1, analyzer: analyzer}]
}

// Annotations is the cross-package index of annotated declarations. Keys:
//   - NoLock, LockFns: types.Func FullName ("pkg.F",
//     "(pkg.T).M", "(*pkg.T).M", "(pkg.I).M"), or "pkgpath.Type.field" for
//     func-typed struct fields.
//   - Durable: "pkgpath.TypeName".
//   - AtomicFields: "pkgpath.Type.field".
type Annotations struct {
	NoLock       map[string]bool
	LockFns      map[string]bool
	Durable      map[string]bool
	AtomicFields map[string]bool
}

// NewAnnotations returns an index seeded with the contracts that must hold
// even when the declaring package is not loaded from source in this run
// (export-data imports, go vet -vettool single-package units). The ocasta
// entries mirror in-tree //ocasta: annotations; the std entries cover
// types whose sources we never load.
func NewAnnotations() *Annotations {
	return &Annotations{
		NoLock: map[string]bool{
			// Store observers run on the writer's goroutine after the shard
			// lock is released; the analytics engine serializes internally,
			// so an under-lock call would let one slow observer stall
			// unrelated writers (and deadlock if the observer re-enters the
			// store).
			"(ocasta/internal/ttkv.StatsObserver).ObserveWrite": true,
		},
		LockFns: map[string]bool{
			"(*ocasta/internal/ttkv.Store).lockShardsFor": true,
		},
		Durable: map[string]bool{
			// Close/Sync/Flush on these types is where buffered writes meet
			// the disk: a dropped error here is silent data loss.
			"os.File":                           true,
			"bufio.Writer":                      true,
			"ocasta/internal/ttkv.GroupCommit":  true,
			"ocasta/internal/ttkv.ReplLog":      true,
			"ocasta/internal/ttkv.SegmentedAOF": true,
		},
		AtomicFields: map[string]bool{
			// The MVCC publication protocol: each record's version array
			// and each shard's key map are immutable values published by a
			// single atomic pointer store, and the watermark gates what
			// readers may see. A direct read of any of these races with
			// publication; a direct write tears it.
			"ocasta/internal/ttkv.record.state":      true,
			"ocasta/internal/ttkv.shard.records":     true,
			"ocasta/internal/ttkv.publisher.visible": true,
		},
	}
}

// CollectAnnotations folds every //ocasta: declaration annotation found in
// pkgs into the index. Call after type-checking, before running analyzers.
func (a *Annotations) CollectAnnotations(pkgs []*Package) {
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			a.collectFile(pkg, f)
		}
	}
}

func commentHas(groups []*ast.CommentGroup, directive string) bool {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text := c.Text
			if text == directivePrefix+directive ||
				strings.HasPrefix(text, directivePrefix+directive+" ") {
				return true
			}
		}
	}
	return false
}

func (a *Annotations) collectFile(pkg *Package, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
			if obj == nil {
				continue
			}
			if commentHas([]*ast.CommentGroup{d.Doc}, "nolock") {
				a.NoLock[obj.FullName()] = true
			}
			if commentHas([]*ast.CommentGroup{d.Doc}, "lockfn") {
				a.LockFns[obj.FullName()] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				docs := []*ast.CommentGroup{d.Doc, ts.Doc, ts.Comment}
				typeName := pkg.Types.Path() + "." + ts.Name.Name
				if commentHas(docs, "durable") {
					a.Durable[typeName] = true
				}
				a.collectTypeFields(pkg, ts)
			}
		}
	}
}

// collectTypeFields picks up nolock interface methods, nolock func-typed
// struct fields, and atomic struct fields.
func (a *Annotations) collectTypeFields(pkg *Package, ts *ast.TypeSpec) {
	typePrefix := pkg.Types.Path() + "." + ts.Name.Name + "."
	switch t := ts.Type.(type) {
	case *ast.InterfaceType:
		for _, m := range t.Methods.List {
			if !commentHas([]*ast.CommentGroup{m.Doc, m.Comment}, "nolock") {
				continue
			}
			for _, name := range m.Names {
				if obj, ok := pkg.Info.Defs[name].(*types.Func); ok {
					a.NoLock[obj.FullName()] = true
				}
			}
		}
	case *ast.StructType:
		for _, field := range t.Fields.List {
			docs := []*ast.CommentGroup{field.Doc, field.Comment}
			nolock := commentHas(docs, "nolock")
			atomic := commentHas(docs, "atomic")
			if !nolock && !atomic {
				continue
			}
			for _, name := range field.Names {
				if nolock {
					a.NoLock[typePrefix+name.Name] = true
				}
				if atomic {
					a.AtomicFields[typePrefix+name.Name] = true
				}
			}
		}
	}
}

// FieldKey returns the index key for a struct field object
// ("pkgpath.Type.field"), or "" if v is not a named struct's field.
func FieldKey(v *types.Var, structType types.Type) string {
	if v == nil || !v.IsField() {
		return ""
	}
	t := structType
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name() + "." + v.Name()
}

// TypeKey returns the index key "pkgpath.TypeName" for a (possibly
// pointer-to) named type, or "" for anything else.
func TypeKey(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// Run executes analyzers over pkgs, applies //ocasta:allow suppression,
// and returns the surviving diagnostics sorted by position. Malformed
// directives are reported once per package, whatever analyzers run.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	ann := NewAnnotations()
	ann.CollectAnnotations(pkgs)
	var out []Diagnostic
	for _, pkg := range pkgs {
		dirs, dirDiags := ParseDirectives(pkg.Fset, pkg.Syntax)
		out = append(out, dirDiags...)
		for _, an := range analyzers {
			files := pkg.Syntax
			if an.SkipTests {
				files = nonTestFiles(pkg.Fset, files)
			}
			pass := &Pass{
				Analyzer: an,
				Fset:     pkg.Fset,
				Files:    files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Ann:      ann,
				report: func(d Diagnostic) {
					if !dirs.Allowed(d.Analyzer, d.Pos) {
						out = append(out, d)
					}
				},
			}
			if err := an.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.Types.Path(), an.Name, err)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Message < out[j].Message
	})
	return out, nil
}

func nonTestFiles(fset *token.FileSet, files []*ast.File) []*ast.File {
	out := make([]*ast.File, 0, len(files))
	for _, f := range files {
		if !strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}
