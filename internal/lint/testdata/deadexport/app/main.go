// Command app uses part of lib.
package main

import (
	"fmt"

	"fixture/internal/lib"
	_ "fixture/pub"
)

func main() {
	var c lib.Counter
	c.Inc()
	fmt.Println(lib.Used(), c)
}
