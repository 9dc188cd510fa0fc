module dnslb/benchmark

go 1.22

require dnslb v0.0.0

replace dnslb => ../
