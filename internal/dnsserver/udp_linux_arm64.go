package dnsserver

import "syscall"

const sysSendmmsg = syscall.SYS_SENDMMSG // amd64's is missing: udp_linux_amd64.go
