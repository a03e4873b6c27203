#include "textflag.h"

// func getfp() (fp, gp unsafe.Pointer)
//
// NOFRAME: the stub saves no frame of its own, so BP is still its
// caller's frame pointer.
TEXT ·getfp(SB), NOSPLIT|NOFRAME, $0-16
	MOVQ BP, fp+0(FP)
	MOVQ (TLS), AX
	MOVQ AX, gp+8(FP)
	RET
