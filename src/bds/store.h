/**
 * @file
 * Facade: the fleet-safe shared storage layer both caches sit on —
 * bds::SharedStore (fsync-before-rename publish, LRU byte budgets,
 * store-down degradation and self-healing) and the cross-process
 * single-flight lease protocol (bds::Lease, acquireLease). Its traffic
 * counters are the `store.*` rows of the counter registry
 * (docs/OBSERVABILITY.md, "Counters").
 */

#ifndef BDS_BDS_STORE_H
#define BDS_BDS_STORE_H

#include "store/lease.h"
#include "store/shared.h"

#endif // BDS_BDS_STORE_H
