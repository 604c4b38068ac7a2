package qvm

import (
	"fmt"
	"strings"
)

var axisNames = [numAxes]string{"child", "desc", "following", "preceding"}
var testNames = [numTests]string{"name", "wild", "attr", "text"}

var predNames = map[Op]string{
	pExists: "exists", pEq: "eq", pContains: "contains", pStarts: "starts",
	pCount: "count", pPos: "pos", pLast: "last", pSelfEq: "selfeq",
	pJumpF: "jumpf", pJumpT: "jumpt", pRet: "ret",
}

// Disasm renders the program for tests and debugging.
func (p *Program) Disasm() string {
	var b strings.Builder
	for pc, in := range p.Instrs {
		fmt.Fprintf(&b, "%3d: ", pc)
		switch {
		case in.Op == opEnd:
			b.WriteString("end")
		case in.Op.isStep():
			fmt.Fprintf(&b, "step %s/%s", axisNames[in.Op.axis()], testNames[in.Op.test()])
			if in.A >= 0 {
				fmt.Fprintf(&b, " name=%q", p.Names[in.A])
			}
			if in.B >= 0 {
				fmt.Fprintf(&b, " preds@%d n=%d", in.B, in.C>>predCountShift)
				if in.C&stepGrouped != 0 {
					b.WriteString(" grouped")
				}
			}
		default:
			fmt.Fprintf(&b, "%s a=%d b=%d c=%d", predNames[in.Op], in.A, in.B, in.C)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
