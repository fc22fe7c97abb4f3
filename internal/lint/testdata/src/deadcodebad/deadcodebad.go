// Package deadcodebad declares functions and methods nothing refers to.
package deadcodebad

// T carries the methods under test.
type T struct{ n int }

// Get has no caller and matches no interface method.
func (t *T) Get() int { return t.n }

// String has fmt.Stringer's name but not its signature.
func (t *T) String(verbose bool) string { return "" }

// helper is unexported and never called.
func helper() int { return 1 }

// Exported is exported, but nothing in the module calls it.
func Exported() int { return 2 }

// Box is generic; no instantiation's method is referenced.
type Box[E any] struct{ v E }

// Peek is unreferenced at every instantiation.
func (b Box[E]) Peek() E { return b.v }

// Consumed keeps Box itself referenced.
var Consumed = Box[int]{}
