// Package deadcodeok refers to every function and method it declares,
// or exempts it for a stated reason.
package deadcodeok

import "fmt"

// T carries the methods under test.
type T struct{ n int }

// String matches fmt.Stringer, an interface of an imported package.
func (t T) String() string { return fmt.Sprint(t.n) }

// Error matches the universe's error interface.
func (t T) Error() string { return "t" }

// shape is an interface declared in the module.
type shape interface{ area() int }

// area matches shape's method.
func (t T) area() int { return t.n }

// called is reached through a plain call.
func called() int { return 1 }

// value is reached through a function value.
func value() int { return 2 }

// method is reached through a method value.
func (t T) method() int { return t.n }

// Box is generic.
type Box[E any] struct{ v E }

// Get is referenced at the instantiation Box[int].
func (b Box[E]) Get() E { return b.v }

// Map is generic and called with an inferred instantiation.
func Map[E any](e E) E { return e }

// Kept has no caller but is justified in place.
//
//smtlint:ignore deadcode fixture: a justified exception
func Kept() {}

// init is called by the runtime, so it is exempt itself.
func init() {
	f := value
	m := T{}.method
	var s shape = T{}
	_ = s
	_ = called() + f() + m() + Box[int]{}.Get() + Map(3)
}
