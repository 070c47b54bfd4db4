// A second file of the same fixture package, for one property: a
// //lint:allow directive waives findings in its own file only. The
// wall-clock read at the bottom sits on line 24, the line of
// determinism.go's first directive, and must still be reported (the
// waiver match used to compare line numbers alone, so a directive in
// one file silenced — and was credited for — the same line of every
// other file in the package).
package engine

import "time"

// padTo24 exists only to place sameLineOtherFile's call on line 24.
func padTo24() int {
	n := 0
	n++
	n++
	n++
	n++
	n++
	return n
}

func sameLineOtherFile() int64 {
	return time.Now().Unix() // want `wall clock`
}
