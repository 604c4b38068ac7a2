package main

import (
	"fmt"

	"fixture/internal/a"
)

func main() { fmt.Println(a.Used()) }
