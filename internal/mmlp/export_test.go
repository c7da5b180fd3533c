package mmlp

// AppendAnswerFast is AppendAnswer's schema encoder alone: ok is false
// where AppendAnswer declines to encoding/json.
func AppendAnswerFast(dst []byte, v any, base *EncodedX) ([]byte, bool) {
	return appendAnswer(dst, v, base)
}
