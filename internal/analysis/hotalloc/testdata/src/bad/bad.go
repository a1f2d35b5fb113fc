// Package hot is the detection half of the hotalloc fixture: Work is a
// //lint:hotpath root, its call closure pulls in helper, record, spawn
// and the bound closure step, and each construct class the scanner
// recognizes is seeded exactly once. Cold allocates the same way outside
// the closure and must draw no report.
package hot

import "fmt"

// sink keeps escaping values alive.
var sink interface{}

type conf struct{ n int }

//lint:hotpath fixture root
func Work(n int, names []string, groups map[int][]string) string {
	buf := make([]byte, n) // want `make allocates on each call`
	c := new(conf)         // want `new allocates on each call`
	p := &conf{n: n}       // want `literal allocates`
	xs := []int{n}         // want `slice literal allocates its backing array`
	m := map[string]int{}  // want `map literal allocates`
	var out []byte
	out = append(out, buf...)               // want `append to out, declared without capacity: grows by reallocation`
	groups[n] = append(groups[n], names...) // want `append to a map element: grows by reallocation`
	msg := fmt.Sprintf("%d", n)             // want `fmt.Sprintf formats into fresh allocations`
	msg += names[0]                         // want `string \+= concatenation allocates`
	s := msg + string(out)                  // want `string concatenation allocates`
	spawn(func() { sink = s })              // want `closure captures variables and escapes`
	step := func(i int) int {
		return len(make([]byte, i)) // want `make allocates on each call`
	}
	helper(p)
	_, _, _ = c, xs, m
	return s[:step(n)]
}

// helper is hot via Work; its boxing call is the closure's deepest site.
func helper(c *conf) {
	record(c.n) // want `argument boxes int into interface parameter \(allocates\)`
}

func record(v interface{}) { sink = v }

func spawn(f func()) { f() }

// Cold is outside the hot closure: the identical constructs are not this
// pass's business.
func Cold(n int) []byte {
	out := make([]byte, 0)
	return append(out, fmt.Sprintf("%d", n)...)
}
