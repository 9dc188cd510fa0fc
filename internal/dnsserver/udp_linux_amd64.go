package dnsserver

const sysSendmmsg = 307 // SYS_SENDMMSG, missing from syscall on amd64
