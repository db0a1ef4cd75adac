package ir

// EvalBin computes a binary operation on concrete values — the semantic
// definition the interpreter executes (its hot path open-codes the common
// kinds).
// Division and modulo by zero yield 0 (the simulated machine's convention).
func EvalBin(k BinKind, a, b int64) int64 {
	switch k {
	case BinAdd:
		return a + b
	case BinSub:
		return a - b
	case BinMul:
		return a * b
	case BinDiv:
		if b == 0 {
			return 0
		}
		return a / b
	case BinMod:
		if b == 0 {
			return 0
		}
		return a % b
	case BinAnd:
		return a & b
	case BinOr:
		return a | b
	case BinXor:
		return a ^ b
	case BinShl:
		return a << uint64(b&63)
	case BinShr:
		return int64(uint64(a) >> uint64(b&63))
	}
	panic("ir: bad binop")
}

// EvalCmp computes a comparison predicate on concrete values.
func EvalCmp(p CmpKind, a, b int64) bool {
	switch p {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	}
	panic("ir: bad cmp")
}
