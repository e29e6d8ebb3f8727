package checks

import (
	"go/ast"
	"go/token"

	"flowmotif/internal/analysis/flowvet"
)

// Nilrecv enforces the obs package's central contract: every instrument
// handle is safe to use when nil, so call sites never need nil checks
// and disabling observability costs nothing. Concretely, every exported
// pointer-receiver method on an instrument type must begin with a
// nil-receiver guard (`if c == nil { ... }` as its first statement).
var Nilrecv = &flowvet.Analyzer{
	Name: "nilrecv",
	Doc: "exported pointer-receiver methods on internal/obs instrument types " +
		"must begin with a nil-receiver guard",
	Run: runNilrecv,
}

// instrumentTypes are the obs handle types handed to callers; internal
// helper types (registry internals, ring buffers) are exempt.
var instrumentTypes = map[string]bool{
	"Counter": true, "FloatCounter": true, "Gauge": true, "Histogram": true,
	"Tracer": true, "TraceSpan": true, "Span": true,
}

func runNilrecv(pass *flowvet.Pass) error {
	if !isObsPkgPath(pass.Pkg.Path) {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			recvName, typeName, isPtr := receiverOf(fd)
			if !isPtr || !instrumentTypes[typeName] {
				continue
			}
			if len(fd.Body.List) == 0 || !isNilGuard(fd.Body.List[0], recvName) {
				pass.Reportf(fd.Name.Pos(),
					"exported method (*%s).%s must begin with a nil-receiver guard (if %s == nil)",
					typeName, fd.Name.Name, nonEmpty(recvName, "recv"))
			}
		}
	}
	return nil
}

func nonEmpty(s, fallback string) string {
	if s == "" {
		return fallback
	}
	return s
}

// receiverOf returns the receiver identifier name, base type name, and
// whether the receiver is a pointer.
func receiverOf(fd *ast.FuncDecl) (recvName, typeName string, isPtr bool) {
	if len(fd.Recv.List) != 1 {
		return "", "", false
	}
	field := fd.Recv.List[0]
	if len(field.Names) == 1 {
		recvName = field.Names[0].Name
	}
	t := field.Type
	if star, ok := t.(*ast.StarExpr); ok {
		isPtr = true
		t = star.X
	}
	switch t := t.(type) {
	case *ast.Ident:
		typeName = t.Name
	case *ast.IndexExpr: // generic receiver T[P]
		if id, ok := t.X.(*ast.Ident); ok {
			typeName = id.Name
		}
	}
	return recvName, typeName, isPtr
}

// isNilGuard reports whether stmt is an if whose condition mentions
// `recv == nil` or `recv != nil` (possibly among other conjuncts).
func isNilGuard(stmt ast.Stmt, recvName string) bool {
	ifs, ok := stmt.(*ast.IfStmt)
	if !ok || recvName == "" || recvName == "_" {
		return false
	}
	found := false
	ast.Inspect(ifs.Cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || (b.Op != token.EQL && b.Op != token.NEQ) {
			return true
		}
		if mentionsRecvNil(b.X, b.Y, recvName) || mentionsRecvNil(b.Y, b.X, recvName) {
			found = true
			return false
		}
		return true
	})
	return found
}

func mentionsRecvNil(x, y ast.Expr, recvName string) bool {
	xi, ok := ast.Unparen(x).(*ast.Ident)
	if !ok || xi.Name != recvName {
		return false
	}
	yi, ok := ast.Unparen(y).(*ast.Ident)
	return ok && yi.Name == "nil"
}
