package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// DocComment enforces the repository's godoc contract: every package under
// internal/ or cmd/ must carry a package doc comment, and every exported
// top-level identifier in those packages must carry its own doc comment (or
// be covered by its declaration group's). The experiment commands and the
// harness are the reproduction's user interface — an undocumented export is
// an export nobody can use without reading the source.
var DocComment = &Analyzer{
	Name: "doccomment",
	Doc:  "requires a package doc comment and doc comments on exported top-level identifiers in internal/ and cmd/ packages",
	Run:  runDocComment,
}

// docCommentScope reports whether the package at the given import path is
// held to the doc contract: everything under internal/ and cmd/, plus
// testdata packages (which the test harness loads with an empty path).
func docCommentScope(path string) bool {
	return path == "" ||
		strings.Contains(path, "/internal/") ||
		strings.Contains(path, "/cmd/")
}

func runDocComment(pass *Pass) error {
	if !docCommentScope(pass.Path) {
		return nil
	}
	var first *ast.File
	hasPkgDoc := false
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		if first == nil {
			first = f
		}
		if f.Doc != nil {
			hasPkgDoc = true
		}
	}
	if first == nil {
		return nil // test-only package
	}
	if !hasPkgDoc {
		name := pass.Pkg.Name()
		pass.Reportf(first.Name.Pos(),
			"package %s has no doc comment; add a 'Package %s ...' comment above one package clause", name, name)
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			checkDeclDoc(pass, decl)
		}
	}
	return nil
}

// checkDeclDoc flags exported top-level identifiers declared without a doc
// comment. A group doc on a const/var/type block covers every spec in it;
// otherwise a value spec may carry its own doc or trailing line comment.
func checkDeclDoc(pass *Pass, decl ast.Decl) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Doc != nil || !ast.IsExported(d.Name.Name) {
			return
		}
		if recv := recvTypeName(d); d.Recv != nil {
			if !ast.IsExported(recv) {
				return // method on an unexported type: not part of the API
			}
			pass.Reportf(d.Name.Pos(), "exported method %s.%s has no doc comment", recv, d.Name.Name)
			return
		}
		pass.Reportf(d.Name.Pos(), "exported function %s has no doc comment", d.Name.Name)
	case *ast.GenDecl:
		if d.Doc != nil {
			return // the group doc covers every spec
		}
		kind := map[token.Token]string{token.CONST: "const", token.VAR: "var", token.TYPE: "type"}[d.Tok]
		if kind == "" {
			return // imports
		}
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Doc == nil && ast.IsExported(s.Name.Name) {
					pass.Reportf(s.Name.Pos(), "exported type %s has no doc comment", s.Name.Name)
				}
			case *ast.ValueSpec:
				if s.Doc != nil || s.Comment != nil {
					continue
				}
				for _, name := range s.Names {
					if ast.IsExported(name.Name) {
						pass.Reportf(name.Pos(), "exported %s %s has no doc comment", kind, name.Name)
					}
				}
			}
		}
	}
}

// recvTypeName returns the bare name of a method's receiver type ("" for
// functions), unwrapping pointers, parens and type parameters.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch e := t.(type) {
		case *ast.StarExpr:
			t = e.X
			continue
		case *ast.ParenExpr:
			t = e.X
			continue
		case *ast.IndexExpr:
			t = e.X
			continue
		case *ast.IndexListExpr:
			t = e.X
			continue
		}
		break
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
